// Package inject is SPEX-INJ's testing harness (paper §3.1). For every
// generated misconfiguration it boots the target on fresh virtual
// substrates, runs the target's own functional tests, and classifies the
// reaction (Table 3). A reaction is a vulnerability unless the system
// pinpoints the faulting parameter in its logs. The harness applies the
// paper's two optimizations: run the shortest test first, and stop at the
// first failed test.
package inject

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"spex/internal/conffile"
	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/engine"
	"spex/internal/sim"
	"spex/internal/vfs"
)

// Reaction classifies how the system reacted to an injected
// misconfiguration (Table 3, plus the two non-vulnerability outcomes).
type Reaction int

const (
	// ReactionCrash: the system crashed or hung.
	ReactionCrash Reaction = iota
	// ReactionEarlyTerm: the system exited without pinpointing the
	// injected error.
	ReactionEarlyTerm
	// ReactionFuncFailure: a functional test failed without a
	// pinpointing message.
	ReactionFuncFailure
	// ReactionSilentViolation: the system changed the input
	// configuration to a different value without notifying the user.
	ReactionSilentViolation
	// ReactionSilentIgnorance: the system ignored the input
	// configuration (mainly for control-dependency violations).
	ReactionSilentIgnorance
	// ReactionGood: the system rejected or flagged the error AND
	// pinpointed the parameter — the desired behaviour, not a
	// vulnerability.
	ReactionGood
	// ReactionTolerated: the system behaved correctly despite the
	// injection (over-approximate constraint or benign value).
	ReactionTolerated
)

var reactionNames = [...]string{
	"crash/hang", "early termination", "functional failure",
	"silent violation", "silent ignorance", "good reaction", "tolerated",
}

func (r Reaction) String() string {
	if r < 0 || int(r) >= len(reactionNames) {
		return fmt.Sprintf("Reaction(%d)", int(r))
	}
	return reactionNames[r]
}

// Vulnerability reports whether the reaction counts as a misconfiguration
// vulnerability.
func (r Reaction) Vulnerability() bool {
	switch r {
	case ReactionCrash, ReactionEarlyTerm, ReactionFuncFailure,
		ReactionSilentViolation, ReactionSilentIgnorance:
		return true
	}
	return false
}

// Outcome is the result of testing one misconfiguration.
type Outcome struct {
	Misconf    confgen.Misconf
	Reaction   Reaction
	Pinpointed bool
	FailedTest string
	LogDump    string
	// Loc is the source location of the violated constraint — the code
	// location a fix would patch (Table 5b).
	Loc constraint.SourceLoc
	// SimCost is the simulated testing cost in test-weight units.
	SimCost int
	// Err records a harness-level failure (not a system reaction): the
	// misconfiguration could not be tested. Errored outcomes stay in the
	// report but are excluded from the reaction tallies.
	Err string
	// Skipped marks an outcome the scheduler never started because the
	// campaign was cancelled first. Skipped outcomes carry the context
	// error in Err but are not harness failures: they are reported as
	// skipped work, not as untestable misconfigurations.
	Skipped bool
	// Yielded marks an outcome a scheduler gate abandoned because its
	// key was reassigned to another worker mid-campaign (the
	// coordinator's work-stealing rebalance, internal/coord). Like
	// Skipped, a yielded outcome is not a harness failure: the thief
	// executes the misconfiguration and the merge folds its outcome in.
	Yielded bool
}

// ErrYielded is the gate error a scheduler returns for a
// misconfiguration whose lease was stolen by another worker: this
// process must not execute it. Outcomes carrying it are marked Yielded,
// never cached, and excluded from the harness-failure tallies.
var ErrYielded = errors.New("inject: lease reassigned to another worker")

// Report aggregates a campaign over one system.
type Report struct {
	System   string
	Outcomes []Outcome
	// TotalSimCost is the simulated campaign duration in weight units,
	// counting only outcomes that actually executed (replayed outcomes
	// cost nothing — the point of incremental retesting).
	TotalSimCost int
	// Replayed counts outcomes served from the incremental result cache.
	Replayed int
	// ReplayedSimCost is the simulated cost the cache avoided.
	ReplayedSimCost int
	// Skipped counts misconfigurations the scheduler never started
	// because the campaign was cancelled (distinct from harness errors).
	Skipped int
	// Yielded counts misconfigurations this worker gave up to a
	// work-stealing rebalance (distinct from both skips and harness
	// errors: another worker executes them).
	Yielded int
}

// CountByReaction tallies outcomes per reaction (Table 5a row). Errored
// outcomes are not reactions and are excluded.
func (r *Report) CountByReaction() map[Reaction]int {
	out := make(map[Reaction]int)
	for _, o := range r.Outcomes {
		if o.Err != "" {
			continue
		}
		out[o.Reaction]++
	}
	return out
}

// Vulnerabilities returns the outcomes that are vulnerabilities.
func (r *Report) Vulnerabilities() []Outcome {
	var out []Outcome
	for _, o := range r.Outcomes {
		if o.Err != "" {
			continue
		}
		if o.Reaction.Vulnerability() {
			out = append(out, o)
		}
	}
	return out
}

// Finished counts the outcomes that ran (or replayed) to completion —
// everything except harness errors, cancellation skips, and steal
// yields. The drivers' replayed-vs-executed arithmetic is
// Finished() - Replayed.
func (r *Report) Finished() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Err == "" {
			n++
		}
	}
	return n
}

// Errors returns the outcomes the harness failed to test. Outcomes a
// cancellation skipped before they started, or a work-stealing
// rebalance reassigned to another worker, are not failures and are
// listed by SkippedOutcomes / counted by Report.Yielded instead.
func (r *Report) Errors() []Outcome {
	var out []Outcome
	for _, o := range r.Outcomes {
		if o.Err != "" && !o.Skipped && !o.Yielded {
			out = append(out, o)
		}
	}
	return out
}

// SkippedOutcomes returns the outcomes a cancellation prevented from
// starting.
func (r *Report) SkippedOutcomes() []Outcome {
	var out []Outcome
	for _, o := range r.Outcomes {
		if o.Skipped {
			out = append(out, o)
		}
	}
	return out
}

// UniqueLocations counts distinct source-code locations behind the
// vulnerabilities (Table 5b): one patch may fix several vulnerabilities.
func (r *Report) UniqueLocations() int {
	seen := map[string]bool{}
	for _, o := range r.Outcomes {
		if o.Err != "" || !o.Reaction.Vulnerability() {
			continue
		}
		key := fmt.Sprintf("%s:%d", o.Loc.File, o.Loc.Line)
		seen[key] = true
	}
	return len(seen)
}

// Progress is one campaign progress event: Done outcomes have finished
// (executed or replayed) out of Total. It is the single-system face of
// the progress pipeline — the global scheduler's shard.Progress carries
// the same counts plus the owning system — so every consumer (the CLI
// status line, the TTY bar renderer, the daemon's SSE stream) speaks
// one event vocabulary end to end.
type Progress struct {
	// Done counts outcomes that finished (cancellation skips are not
	// progress; they are tallied on Report.Skipped).
	Done int
	// Total is the campaign size.
	Total int
}

// Options tune the campaign.
type Options struct {
	// HangDeadline bounds Start; targets model hangs by blocking.
	HangDeadline time.Duration
	// StopOnFirstFailure stops testing a misconfiguration at the first
	// failed functional test (paper optimization 1).
	StopOnFirstFailure bool
	// SortTests runs the shortest test first (paper optimization 2).
	SortTests bool
	// SimCostDelay converts simulated cost units into real time: after
	// testing a misconfiguration the worker sleeps SimCost × this
	// duration, modeling the paper's real-server campaign where booting
	// the target once per misconfiguration dominates the cost (§3.1,
	// "under 10 hours"). Zero (the default) runs at full simulation
	// speed. The engine overlaps these delays across workers, so a
	// parallel campaign's wall-clock time shrinks toward
	// TotalSimCost/Workers — the speedup the paper's optimizations and
	// this scheduler exist to deliver.
	SimCostDelay time.Duration
	// Workers bounds campaign parallelism: how many misconfigurations
	// are in flight at once. Zero (the zero value) sizes the pool to the
	// hardware (engine.DefaultWorkers); one runs sequentially. Outcomes
	// are always reassembled in input order, so a parallel report is
	// identical to a sequential one.
	Workers int
	// Progress, if set, streams campaign progress as outcomes complete.
	// Calls are serialized by the scheduler. Outcomes a cancellation
	// skipped before they started are not reported as done — they are
	// tallied on Report.Skipped instead, so a cancelled campaign's
	// progress stays at the work actually performed.
	Progress func(Progress)
	// Cache, if set, replays recorded outcomes for misconfigurations
	// whose identity (violated constraint, rule, injected values) is
	// unchanged, and records fresh outcomes for the ones that ran —
	// SPEX-INJ's incremental retesting mode (paper §3.1).
	Cache *ResultCache
	// KeepAllLogs retains Outcome.LogDump for every outcome. By default
	// dumps are kept only for vulnerability outcomes and harness errors:
	// good/tolerated reactions never render their logs (ErrorReport is
	// only produced for vulnerabilities), and dropping them keeps the
	// in-memory result cache and persisted campaign snapshots small.
	KeepAllLogs bool
}

// DefaultHangDeadline is the Start deadline applied when
// Options.HangDeadline is zero. Campaign snapshots key replay identity
// on the effective deadline (campaignstore.OptionsID), so it lives in
// one place.
const DefaultHangDeadline = 250 * time.Millisecond

// DefaultOptions enables both paper optimizations.
func DefaultOptions() Options {
	return Options{HangDeadline: DefaultHangDeadline, StopOnFirstFailure: true, SortTests: true}
}

// Run executes a full campaign: every misconfiguration in ms against the
// target system.
func Run(sys sim.System, ms []confgen.Misconf, opts Options) (*Report, error) {
	// Context-free compatibility shim; scheduled callers use RunContext.
	//spexlint:ignore ctxflow context-free entry point
	return RunContext(context.Background(), sys, ms, opts)
}

// Runner executes individual misconfigurations of one system — the unit
// of work the schedulers dispatch. RunContext wraps one runner in a
// worker pool; the global cross-target scheduler (internal/shard)
// interleaves many runners' tasks on a single pool.
type Runner struct {
	sys     sim.System
	tmpl    *conffile.File // parsed template; every Test clones it
	tmplErr error          // template parse error, returned by every Test
	tests   []sim.FuncTest // functional tests in run order
	opts    Options
}

// NewRunner prepares a runner for the system. The options are
// normalized once here (HangDeadline zero becomes DefaultHangDeadline),
// so every Test call and every scheduler sees the same effective
// options. The template configuration is parsed and the functional
// tests are ordered once here too; Test only reads them, so concurrent
// Test calls share them safely.
func NewRunner(sys sim.System, opts Options) *Runner {
	if opts.HangDeadline == 0 {
		opts.HangDeadline = DefaultHangDeadline
	}
	tmpl, err := conffile.Parse(sys.DefaultConfig(), sys.Syntax())
	tests := append([]sim.FuncTest(nil), sys.Tests()...)
	if opts.SortTests {
		sort.SliceStable(tests, func(i, j int) bool { return tests[i].Weight < tests[j].Weight })
	}
	return &Runner{sys: sys, tmpl: tmpl, tmplErr: err, tests: tests, opts: opts}
}

// System returns the runner's target.
func (r *Runner) System() sim.System { return r.sys }

// Options returns the normalized campaign options.
func (r *Runner) Options() Options { return r.opts }

// Test executes one misconfiguration end to end: boot on fresh virtual
// substrates, functional tests, reaction classification, log-dump
// trimming, and the optional SimCostDelay sleep. A returned error is a
// harness-level failure (the misconfiguration could not be tested),
// never a system reaction.
func (r *Runner) Test(ctx context.Context, m confgen.Misconf) (Outcome, error) {
	out, err := r.runOne(ctx, m)
	if err == nil && !r.opts.KeepAllLogs && !out.Reaction.Vulnerability() {
		// Good/tolerated reactions never render their logs; dropping
		// the dump keeps the result cache and persisted snapshots
		// bounded by the vulnerability count, not the campaign size.
		out.LogDump = ""
	}
	if err == nil && r.opts.SimCostDelay > 0 {
		sleepCost(ctx, out.SimCost, r.opts.SimCostDelay)
	}
	return out, err
}

// Assemble folds one system's engine results back into a campaign
// report, in input (ms) order: cached results are replayed with their
// metadata refreshed from the current misconfiguration list, errored
// and skipped tasks are recorded per outcome, and the cost tallies
// split into executed vs replayed. RunContext and the global
// cross-target scheduler (internal/shard) share this function, which
// is why a globally scheduled campaign's per-system report is
// identical to a per-system run's.
func Assemble(system string, ms []confgen.Misconf, results []engine.Result[Outcome], cache *ResultCache) *Report {
	rep := &Report{System: system, Outcomes: make([]Outcome, 0, len(ms))}
	for i, r := range results {
		out := r.Value
		if r.Cached {
			// The cache key guarantees identity (constraint ID, rule ID,
			// injected values, env actions) but not metadata: a code
			// revision can move the constraint's source location without
			// changing its identity. Refresh the replayed outcome — and
			// the cache entry the next snapshot will persist — from the
			// current misconfiguration.
			out.Misconf = ms[i]
			if ms[i].Violates != nil {
				out.Loc = ms[i].Violates.Loc
			}
			if cache != nil {
				cache.Put(CacheKey(ms[i]), out)
			}
		}
		if r.Err != nil { // errored, cancelled mid-run, never started, or yielded
			// Per-outcome error: keep the campaign going, keep the
			// outcome out of the reaction tallies.
			out.Misconf = ms[i]
			out.Err = r.Err.Error()
			out.Skipped = r.Skipped
			out.Yielded = errors.Is(r.Err, ErrYielded)
			if r.Skipped {
				rep.Skipped++
			}
			if out.Yielded {
				rep.Yielded++
			}
		}
		rep.Outcomes = append(rep.Outcomes, out)
		if r.Cached {
			rep.Replayed++
			rep.ReplayedSimCost += out.SimCost
		} else if out.Err == "" {
			rep.TotalSimCost += out.SimCost
		}
	}
	recordReportMetrics(rep)
	return rep
}

// RunContext executes a full campaign under a context. Misconfigurations
// are dispatched through the engine worker pool (opts.Workers wide);
// outcomes are reassembled in input order so the report is identical to
// a sequential run. A harness-level failure on one misconfiguration is
// recorded on its outcome (Outcome.Err) and the campaign keeps going.
// On cancellation the partial report is returned together with the
// context error: finished outcomes are kept, unstarted ones carry the
// context error and are marked Skipped (tallied on Report.Skipped, not
// reported as progress or harness failures).
func RunContext(ctx context.Context, sys sim.System, ms []confgen.Misconf, opts Options) (*Report, error) {
	runner := NewRunner(sys, opts)
	total := len(ms)

	eopts := engine.Options[Outcome]{Workers: opts.Workers}
	if opts.Progress != nil {
		done := 0
		eopts.OnResult = func(r engine.Result[Outcome]) {
			if r.Skipped {
				// Never-started task flushed by a cancellation: not work
				// done — reported on Report.Skipped instead.
				return
			}
			done++
			opts.Progress(Progress{Done: done, Total: total})
		}
	}
	if opts.Cache != nil {
		eopts.Cache = opts.Cache
		eopts.KeyOf = func(i int) string { return CacheKey(ms[i]) }
	}

	// A Test error is returned as the task error (not folded into the
	// outcome) so the engine never records errored or cancelled outcomes
	// in the cache — they must retry on the next run.
	results, cancelErr := engine.Run(ctx, total, func(ctx context.Context, i int) (Outcome, error) {
		return runner.Test(ctx, ms[i])
	}, eopts)

	rep := Assemble(sys.Name(), ms, results, opts.Cache)
	if cancelErr != nil {
		return rep, fmt.Errorf("inject: %s: %w", sys.Name(), cancelErr)
	}
	return rep, nil
}

func (r *Runner) runOne(ctx context.Context, m confgen.Misconf) (Outcome, error) {
	sys, opts := r.sys, r.opts
	out := Outcome{Misconf: m}
	if m.Violates != nil {
		out.Loc = m.Violates.Loc
	}
	if r.tmplErr != nil {
		return out, r.tmplErr
	}
	cfg := r.tmpl.Clone()
	// Apply the injected values in sorted order so the rendered config —
	// and with it every downstream log line — is deterministic even for
	// multi-parameter misconfigurations.
	params := make([]string, 0, len(m.Values))
	for p := range m.Values {
		params = append(params, p)
	}
	sort.Strings(params)
	for _, p := range params {
		cfg.Set(p, m.Values[p])
	}

	env := sim.NewEnv()
	sys.SetupEnv(env)
	if err := applyEnv(env, m.Env); err != nil {
		return out, err
	}

	started := sim.MonitorStartContext(ctx, sys, env, cfg, opts.HangDeadline)
	if started.Kind == sim.StartCancelled {
		return out, started.Err
	}
	out.SimCost = 1 // boot cost
	line, _ := cfg.LineOf(m.Param)
	injected := m.Values[m.Param]
	pin := env.Log.Pinpoints(m.Param, injected, line)

	switch started.Kind {
	case sim.StartCrash, sim.StartHang:
		out.Reaction = ReactionCrash
		out.Pinpointed = false
		out.LogDump = env.Log.Dump()
		return out, nil
	case sim.StartExit, sim.StartError:
		out.Pinpointed = pin
		if pin {
			out.Reaction = ReactionGood
		} else {
			out.Reaction = ReactionEarlyTerm
		}
		out.LogDump = env.Log.Dump()
		return out, nil
	}

	inst := started.Instance
	defer inst.Stop()

	for _, t := range r.tests {
		out.SimCost += t.Weight
		if err := sim.RunTest(t, env, inst); err != nil {
			pin = env.Log.Pinpoints(m.Param, injected, line)
			out.FailedTest = t.Name
			out.Pinpointed = pin
			if pin {
				out.Reaction = ReactionGood
			} else {
				out.Reaction = ReactionFuncFailure
			}
			out.LogDump = env.Log.Dump()
			if opts.StopOnFirstFailure {
				return out, nil
			}
		}
	}
	if out.FailedTest != "" {
		return out, nil
	}

	// All tests passed: silent violation / ignorance analysis.
	pin = env.Log.Pinpoints(m.Param, injected, line)
	out.Pinpointed = pin
	out.LogDump = env.Log.Dump()

	changed := false
	for p, v := range m.Values {
		if eff, ok := inst.Effective(p); ok && !sameValue(eff, v) {
			changed = true
			break
		}
	}
	switch {
	case pin:
		out.Reaction = ReactionGood
	case changed:
		out.Reaction = ReactionSilentViolation
	case m.Violates != nil && m.Violates.Kind == constraint.KindControlDep:
		// The setting is retained verbatim but cannot take effect: the
		// dependency condition is violated by construction.
		out.Reaction = ReactionSilentIgnorance
	default:
		out.Reaction = ReactionTolerated
	}
	return out, nil
}

// sleepCost realizes a tested misconfiguration's simulated cost as wall
// time (SimCostDelay per unit), returning early if the campaign is
// cancelled — the outcome itself is already measured.
func sleepCost(ctx context.Context, units int, perUnit time.Duration) {
	t := time.NewTimer(time.Duration(units) * perUnit)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func sameValue(a, b string) bool {
	na, nb := normalize(a), normalize(b)
	return na == nb
}

func normalize(s string) string {
	s = strings.TrimSpace(s)
	// Numeric normalization: "0064" == "64".
	neg := strings.HasPrefix(s, "-")
	t := strings.TrimPrefix(s, "-")
	if t != "" && strings.Trim(t, "0123456789") == "" {
		t = strings.TrimLeft(t, "0")
		if t == "" {
			t = "0"
		}
		if neg {
			return "-" + t
		}
		return t
	}
	return s
}

func applyEnv(env *sim.Env, actions []confgen.EnvAction) error {
	for _, a := range actions {
		switch a.Kind {
		case confgen.EnvOccupyPort:
			if err := env.Net.OccupyForTest("tcp", a.Port); err != nil {
				return err
			}
			if err := env.Net.OccupyForTest("udp", a.Port); err != nil {
				return err
			}
		case confgen.EnvMakeDir:
			if err := env.FS.MkdirAll(a.Path); err != nil {
				return err
			}
		case confgen.EnvMakeUnreadable:
			if err := env.FS.WriteFile(a.Path, []byte("secret"), 0); err != nil {
				return err
			}
		case confgen.EnvEnsureMissing:
			if env.FS.Exists(a.Path) {
				if err := env.FS.Remove(a.Path); err != nil && err != vfs.ErrNotExist {
					return err
				}
			}
		}
	}
	return nil
}

// ErrorReport renders the developer-facing report for one vulnerability:
// the constraint, the injected error, the failed test, and the logs
// (paper §3.1 "Testing and Analysis").
func ErrorReport(o Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== SPEX-INJ error report: %s ===\n", o.Misconf.ID)
	if o.Misconf.Violates != nil {
		fmt.Fprintf(&b, "constraint : %s\n", o.Misconf.Violates)
	}
	var kv []string
	for p, v := range o.Misconf.Values {
		kv = append(kv, fmt.Sprintf("%s = %s", p, v))
	}
	sort.Strings(kv)
	fmt.Fprintf(&b, "injected   : %s (%s)\n", strings.Join(kv, ", "), o.Misconf.Description)
	fmt.Fprintf(&b, "reaction   : %s\n", o.Reaction)
	if o.FailedTest != "" {
		fmt.Fprintf(&b, "failed test: %s\n", o.FailedTest)
	}
	fmt.Fprintf(&b, "code loc   : %s\n", o.Loc)
	if o.LogDump == "" {
		b.WriteString("logs       : (none)\n")
	} else {
		b.WriteString("logs       :\n")
		for _, line := range strings.Split(strings.TrimRight(o.LogDump, "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}
