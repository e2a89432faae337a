package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"spex/internal/annot"
	"spex/internal/apispec"
	"spex/internal/campaignstore"
	"spex/internal/conffile"
	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/dataflow"
	"spex/internal/designcheck"
	"spex/internal/engine"
	"spex/internal/frontend"
	"spex/internal/inject"
	"spex/internal/mapping"
	"spex/internal/outcomeindex"
	"spex/internal/report"
	"spex/internal/sim"
	"spex/internal/spex"
	"spex/internal/targets"
)

// layerMetrics is the traced run's per-layer breakdown. Layers that run
// only inside another call are timed by a separate call on the same
// inputs (a boot probe times sim.MonitorStartContext the way inject
// calls it). The daemon's and the coordinator's metrics come from a
// short served or coordinated loop unless the workload is that loop.
func layerMetrics(ctx context.Context, cfg config, ops *opCounter) (map[string]metric, error) {
	m, err := probeLayers(ctx, cfg)
	if err != nil {
		return nil, err
	}
	more := []func(context.Context, config, *opCounter) (map[string]metric, error){}
	if cfg.workload != "coordinate" {
		more = append(more, coordProbe)
	}
	if cfg.workload != "serve" {
		more = append(more, serveProbe)
	}
	for _, probe := range more {
		pm, err := probe(ctx, cfg, ops)
		if err != nil {
			return nil, err
		}
		for k, v := range pm {
			m[k] = v
		}
	}
	return m, nil
}

// systemInputs is one system's inference result and campaign.
type systemInputs struct {
	sys  sim.System
	res  *spex.Result
	tmpl *conffile.File
	ms   []confgen.Misconf
}

// probeLayers times every layer below the daemon and the coordinator.
func probeLayers(ctx context.Context, cfg config) (map[string]metric, error) {
	var (
		frontendT, annotT, mappingT, dataflowT, inferT, generateT samples
		parseT, cloneT, bootT, testT, campaignT, designT, scoreT  samples
		obs, constraints, misconfs, simCost                       int
		campaignAlloc                                             uint64
		reactions                                                 = map[inject.Reaction]int{}
		inputs                                                    []systemInputs
	)
	opts := inject.DefaultOptions()
	opts.Workers = 1
	for _, sys := range targets.All() {
		var proj *frontend.Project
		var af *annot.File
		var pairs []mapping.Pair
		var err error
		if frontendT.add(timed(func() { proj, err = frontend.Parse(sys.Name(), sys.Sources()) })); err != nil {
			return nil, err
		}
		if annotT.add(timed(func() { af, err = annot.Parse(sys.Annotations()) })); err != nil {
			return nil, err
		}
		if mappingT.add(timed(func() { pairs, err = mapping.Extract(proj, af) })); err != nil {
			return nil, err
		}
		db := apispec.New()
		if imp, ok := sys.(spex.APIImporter); ok {
			imp.ImportAPIs(db)
		}
		dataflowT.add(timed(func() {
			eng := dataflow.New(proj, db)
			for _, p := range pairs {
				eng.Seed(p.Param, p.Loc)
			}
			obs += len(eng.Run())
		}))

		in := systemInputs{sys: sys}
		if inferT.add(timed(func() { in.res, err = spex.InferSystem(sys) })); err != nil {
			return nil, err
		}
		constraints += len(in.res.Set.Constraints)
		if in.tmpl, err = conffile.Parse(sys.DefaultConfig(), sys.Syntax()); err != nil {
			return nil, err
		}
		generateT.add(timed(func() { in.ms = confgen.NewRegistry().Generate(in.res.Set, in.tmpl) }))
		misconfs += len(in.ms)
		inputs = append(inputs, in)

		// inject parses the template and clones it once per
		// misconfiguration.
		var parseSum, cloneSum time.Duration
		for range in.ms {
			var f *conffile.File
			parseSum += timed(func() { f, err = conffile.Parse(sys.DefaultConfig(), sys.Syntax()) })
			if err != nil {
				return nil, err
			}
			cloneSum += timed(func() { f.Clone() })
		}
		parseT.add(parseSum)
		cloneT.add(cloneSum)

		env := sim.NewEnv()
		sys.SetupEnv(env)
		var started sim.StartOutcome
		bootT.add(timed(func() {
			started = sim.MonitorStartContext(ctx, sys, env, in.tmpl.Clone(), inject.DefaultHangDeadline)
		}))
		if started.Kind != sim.StartOK {
			return nil, fmt.Errorf("%s: default config boots %s", sys.Name(), started.Kind)
		}
		started.Instance.Stop()

		runner := inject.NewRunner(sys, opts)
		for _, m := range in.ms {
			if testT.add(timed(func() { _, err = runner.Test(ctx, m) })); err != nil {
				return nil, err
			}
		}
		var rep *inject.Report
		a0 := heapAlloc()
		campaignT.add(timed(func() { rep, err = inject.RunContext(ctx, sys, in.ms, opts) }))
		campaignAlloc += heapAlloc() - a0
		if err != nil {
			return nil, err
		}
		simCost += rep.TotalSimCost
		for _, o := range rep.Outcomes {
			reactions[o.Reaction]++
		}
		designT.add(timed(func() { designcheck.Run(in.res) }))
		scoreT.add(timed(func() { spex.Score(in.res.Set, sys.GroundTruth()) }))
	}
	util, err := engineUtilization(ctx, inputs, opts)
	if err != nil {
		return nil, err
	}

	m := map[string]metric{
		"frontend.parse_ms":   {frontendT.sum(), "ms"},
		"annot.parse_ms":      {annotT.sum(), "ms"},
		"mapping.extract_ms":  {mappingT.sum(), "ms"},
		"dataflow.run_ms":     {dataflowT.sum(), "ms"},
		"spex.infer_ms":       {inferT.sum(), "ms"},
		"dataflow.obs":        {float64(obs), "count"},
		"constraint.count":    {float64(constraints), "count"},
		"confgen.misconfs":    {float64(misconfs), "count"},
		"confgen.generate_ms": {generateT.sum(), "ms"},
		"conffile.parse_ms":   {parseT.sum(), "ms"},
		"conffile.clone_ms":   {cloneT.sum(), "ms"},
		"sim.boot_ms":         {bootT.sum(), "ms"},
		"inject.test_ms.p50":  {testT.quantile(0.5), "ms"},
		"inject.test_ms.p99":  {testT.quantile(0.99), "ms"},
		"inject.campaign_ms":  {campaignT.sum(), "ms"},
		"inject.alloc_mb":     {mb(campaignAlloc), "MB"},
		"inject.sim_cost":     {float64(simCost), "count"},
		"engine.utilization":  {util, "ratio"},
		"designcheck.run_ms":  {designT.sum(), "ms"},
		"spex.score_ms":       {scoreT.sum(), "ms"},
	}
	for r := inject.ReactionCrash; r <= inject.ReactionTolerated; r++ {
		m["inject.outcomes."+metricName(r.String())] = metric{float64(reactions[r]), "count"}
	}
	sm, err := probeStore(ctx, cfg, inputs)
	if err != nil {
		return nil, err
	}
	for k, v := range sm {
		m[k] = v
	}
	return m, nil
}

// metricName turns a reaction name ("crash/hang") into a metric name
// component ("crash_hang").
func metricName(s string) string {
	return strings.NewReplacer(" ", "_", "/", "_").Replace(s)
}

// engineUtilization runs every system's campaign as one engine pool of
// the benchmark's width and returns the busy share of its workers:
// Σ Runner.Test ÷ (wall × workers).
func engineUtilization(ctx context.Context, inputs []systemInputs, opts inject.Options) (float64, error) {
	type task struct {
		runner *inject.Runner
		m      confgen.Misconf
	}
	var tasks []task
	for _, in := range inputs {
		r := inject.NewRunner(in.sys, opts)
		for _, m := range in.ms {
			tasks = append(tasks, task{r, m})
		}
	}
	var mu sync.Mutex
	var busy time.Duration
	start := time.Now()
	results, err := engine.Run(ctx, len(tasks), func(ctx context.Context, i int) (inject.Outcome, error) {
		var out inject.Outcome
		var err error
		d := timed(func() { out, err = tasks[i].runner.Test(ctx, tasks[i].m) })
		mu.Lock()
		busy += d
		mu.Unlock()
		return out, err
	}, engine.Options[inject.Outcome]{Workers: procs})
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	if err := engine.FirstError(results); err != nil {
		return 0, err
	}
	return busy.Seconds() / (wall.Seconds() * procs), nil
}

// probeStore times the campaign store, the outcome index and the
// report's replay paths on a store filled by a full campaign.
func probeStore(ctx context.Context, cfg config, inputs []systemInputs) (map[string]metric, error) {
	store, lock, err := fillStore(ctx, filepath.Join(cfg.dir, "store-probe"))
	if err != nil {
		return nil, err
	}
	m, err := probeLockedStore(ctx, cfg, store, lock, inputs)
	return m, errors.Join(err, lock.Unlock())
}

func probeLockedStore(ctx context.Context, cfg config, store *campaignstore.Store, lock *campaignstore.Lock, inputs []systemInputs) (map[string]metric, error) {
	var loadT, prepareT, saveT, indexT, buildT samples
	var snapBytes int64
	for _, in := range inputs {
		name := in.sys.Name()
		var snap *campaignstore.Snapshot
		var err error
		if loadT.add(timed(func() { snap, err = store.Load(name) })); err != nil {
			return nil, err
		}
		var st campaignstore.Status
		prepareT.add(timed(func() {
			st, _ = store.Prepare(name, in.res.Set, in.ms, inject.DefaultOptions(), nil, inject.NewResultCache())
		}))
		if !st.Replayed {
			return nil, fmt.Errorf("%s: prepare did not replay: %s", name, st.Fallback)
		}
		if saveT.add(timed(func() { err = lock.Save(snap) })); err != nil {
			return nil, err
		}
		if indexT.add(timed(func() { _, err = store.LoadIndex(name) })); err != nil {
			return nil, err
		}
		_, fi, err := store.SnapshotInfo(name)
		if err != nil {
			return nil, err
		}
		snapBytes += fi.Size()
		meta := outcomeindex.Meta{System: name, Options: snap.Options, SetFingerprint: snap.SetFingerprint, SavedAt: snap.SavedAt}
		buildT.add(timed(func() { outcomeindex.Build(meta, snap.Outcomes) }))
	}

	// Replay ratio of one incremental pass after a seeded tenth of the
	// outcomes is dropped, as the incremental workload does.
	rng := rand.New(rand.NewSource(cfg.seed))
	if _, err := dropOutcomes(store, lock, rng, 10); err != nil {
		return nil, err
	}
	opts := analyzeOptions
	opts.State = lock.Set()
	results, err := report.AnalyzeAllContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	replayed, outcomes := 0, 0
	for _, r := range results {
		replayed += r.Campaign.Replayed
		outcomes += len(r.Campaign.Outcomes)
	}

	idxs, err := store.LoadIndexAll()
	if err != nil {
		return nil, err
	}
	var queryT samples
	for _, kind := range []constraint.Kind{constraint.KindBasicType, constraint.KindSemanticType, constraint.KindRange, constraint.KindControlDep, constraint.KindValueRel} {
		for _, all := range []bool{false, true} {
			q := outcomeindex.Query{Kind: kind.String(), All: all}
			queryT.add(timed(func() { outcomeindex.Run(idxs, q) }))
		}
	}
	for _, all := range []bool{false, true} {
		queryT.add(timed(func() { outcomeindex.Run(idxs, outcomeindex.Query{All: all}) }))
	}

	var replayT, renderT samples
	for i := 0; i < 3; i++ {
		if replayT.add(timed(func() { results, err = report.ReplayFromIndex(ctx, store) })); err != nil {
			return nil, err
		}
		var reads samples
		for _, o := range outputs() {
			var text string
			if reads.add(timed(func() { text, err = o.render(results) })); err != nil {
				return nil, err
			}
			if err := matchReference(o.file, text+"\n"); err != nil {
				return nil, fmt.Errorf("%s: %w", o.file, err)
			}
		}
		renderT.add(time.Duration(reads.sum() * 1e6))
	}
	return map[string]metric{
		"campaignstore.load_ms":        {loadT.sum(), "ms"},
		"campaignstore.prepare_ms":     {prepareT.sum(), "ms"},
		"campaignstore.save_ms":        {saveT.sum(), "ms"},
		"campaignstore.load_index_ms":  {indexT.sum(), "ms"},
		"campaignstore.snapshot_bytes": {float64(snapBytes), "bytes"},
		"campaignstore.replay_ratio":   {float64(replayed) / float64(outcomes), "ratio"},
		"outcomeindex.build_ms":        {buildT.sum(), "ms"},
		"outcomeindex.query_ms":        {queryT.quantile(0.5), "ms"},
		"report.replay_index_ms":       {replayT.quantile(0.5), "ms"},
		"report.render_ms":             {renderT.quantile(0.5), "ms"},
	}, nil
}

// coordProbe runs three coordinated iterations for the coordinator's
// per-layer metrics in workloads other than coordinate.
func coordProbe(ctx context.Context, cfg config, ops *opCounter) (map[string]metric, error) {
	st := &coordStats{}
	job, cleanup := coordinateJob(cfg.dir, st, true)
	for i := 0; i < 3; i++ {
		results, _, err := job(ctx)
		if err != nil {
			return nil, err
		}
		var reads samples
		readOutputs(results, ops, &reads)
		if err := cleanup(); err != nil {
			return nil, err
		}
	}
	return coordMetrics(st), nil
}
