// Command spexbench is the repository's benchmark: the SPEX paper
// pipeline (inference → misconfiguration injection → the evaluation's
// tables and figures) run cold, incrementally against a store, served by
// spexd, and under the work-stealing coordinator.
//
//	spexbench --workload cold-eval --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics, which come from timing calls into each
// layer's public functions (see README.md). The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Every rendered table and figure is compared byte for byte
// with the reference under expected/; a mismatch is a failed operation
// and fails the run.
//
// All state lives in a fresh directory under .bench_work/ in the
// working directory and is removed on exit. inject.Options.SimCostDelay
// is never set: every number is the system's own speed.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spex/internal/campaignstore"
)

// procs is the benchmark's thread budget: two threads of work and two
// client connections, whatever the host offers, so that runs on
// different hosts load the program the same way.
const procs = 2

// setupProbes is how many fresh processes time the workload's set-up;
// setup_s is their median.
const setupProbes = 7

// readyLine is what a --setup-only process prints once set-up is done.
const readyLine = "spexbench: set up"

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	setupOnly bool
	dir       string // this run's private state directory
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the benchmark's result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one workload: its set-up, its closed loop, and the per-layer
// probes of its traced run.
type bench struct {
	// setup is everything before the first timed operation.
	setup func(ctx context.Context) error
	// loop runs the workload for d; a non-nil tracer records the calls
	// the loop makes into a layer.
	loop func(ctx context.Context, d time.Duration, tr *tracer) (*loopStats, error)
	// layers returns the per-layer metrics after the traced loop.
	layers func(ctx context.Context, tr *tracer) (map[string]metric, error)
	// close releases what setup acquired, also after a failed set-up
	// (may be nil).
	close func(ctx context.Context) error
}

// workload builds one workload's bench. Operation counts go to ops.
type workload func(cfg config, ops *opCounter) *bench

var workloads = map[string]workload{
	"cold-eval":   runColdEval,
	"incremental": runIncremental,
	"serve":       runServe,
	"coordinate":  runCoordinate,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: cold-eval, incremental, serve or coordinate")
		seed    = flag.Int64("seed", 1, "seed for the workload's generated choices")
		seconds = flag.Int("seconds", 20, "how long the timed loop runs")
		trace   = flag.Int("trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
		setup   = flag.Bool("setup-only", false, "run the set-up only and print a line when it is done (used to time set-up)")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "spexbench: want --workload cold-eval|incremental|serve|coordinate, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(procs)

	const workRoot = ".bench_work"
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "spexbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "spexbench: %v\n", err)
		return 1
	}
	defer os.Remove(workRoot) // only when no concurrent run still uses it
	defer os.RemoveAll(dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, setupOnly: *setup, dir: dir}
	ops := &opCounter{}
	baseGoroutines := runtime.NumGoroutine()
	metrics, err := measure(ctx, cfg, ops, w(cfg, ops))
	if err != nil {
		fmt.Fprintf(os.Stderr, "spexbench: %s: %v\n", *name, err)
		return 1
	}
	ops.check("hygiene", checkHygiene(dir, baseGoroutines))
	attempted, failed := ops.counts()
	if cfg.setupOnly {
		if failed > 0 {
			return 1
		}
		return 0
	}
	if attempted == 0 {
		fmt.Fprintln(os.Stderr, "spexbench: no operation was attempted")
		return 1
	}
	if !cfg.trace {
		metrics["ok_frac"] = metric{1 - float64(failed)/float64(attempted), "ratio"}
		metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}
	res := outcome{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "spexbench: metric %s is %v\n", k, m.Value)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spexbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if failed > 0 {
		return 1
	}
	return 0
}

// measure runs one workload. With --trace 0 it times the set-up in
// fresh processes and then runs the timed loop for the end-to-end
// metrics. With --trace 1 it runs the loop for half the time untraced
// and half traced, so the tracing overhead is measured in one process on
// one warm state, then the per-layer probes. With --setup-only it prints
// readyLine once set-up is done and stops there.
func measure(ctx context.Context, cfg config, ops *opCounter, b *bench) (m map[string]metric, err error) {
	var setup samples
	if !cfg.trace && !cfg.setupOnly {
		if setup, err = probeSetup(ctx, cfg, ops); err != nil {
			return nil, err
		}
	}
	if b.close != nil {
		defer func() {
			if cerr := b.close(ctx); cerr != nil {
				ops.fail("close: %v", cerr)
			}
		}()
	}
	if err := b.setup(ctx); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if cfg.setupOnly {
		fmt.Println(readyLine)
		return nil, nil
	}
	total := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		st, err := b.loop(ctx, total, nil)
		if err != nil {
			return nil, err
		}
		m = st.endToEnd()
		m["setup_s"] = metric{setup.quantile(0.5) / 1e3, "s"}
		return m, nil
	}
	plain, err := b.loop(ctx, total/2, nil)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	traced, err := b.loop(ctx, total/2, tr)
	if err != nil {
		return nil, err
	}
	if m, err = b.layers(ctx, tr); err != nil {
		return nil, err
	}
	m["trace.overhead_ms"] = metric{traced.pipeline.quantile(0.5) - plain.pipeline.quantile(0.5), "ms"}
	return m, nil
}

// probeSetup times the workload's set-up in fresh processes of this
// program, each from its start to the line it prints when set-up is
// done. Every sample so pays the process's one-time work (package
// initialisation, caches filled on first use) as a user's first
// operation would.
func probeSetup(ctx context.Context, cfg config, ops *opCounter) (samples, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var times samples
	for i := 1; i <= setupProbes; i++ {
		cmd := exec.CommandContext(ctx, exe, "--workload", cfg.workload,
			"--seed", strconv.FormatInt(cfg.seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		// On cancellation the process is asked to stop, so it cleans up.
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		cmd.WaitDelay = 10 * time.Second
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		r := bufio.NewReader(out)
		line, readErr := r.ReadString('\n')
		took := time.Since(start)
		if readErr == nil && strings.TrimSpace(line) != readyLine {
			readErr = fmt.Errorf("unexpected output %q", line)
		}
		// The process cleans up and exits; read to the end before Wait.
		_, drainErr := io.Copy(io.Discard, r)
		waitErr := cmd.Wait()
		// A process that set up but failed an operation (a mismatched
		// table) still timed its set-up; the failure is counted.
		ops.check(fmt.Sprintf("setup probe %d", i), errors.Join(readErr, drainErr, waitErr))
		if readErr == nil {
			times.add(took)
		}
	}
	if len(times) == 0 {
		return nil, errors.New("no set-up probe succeeded")
	}
	return times, nil
}

// checkHygiene asserts the run released every store lock and stopped
// every goroutine it started.
func checkHygiene(dir string, baseGoroutines int) error {
	// Per-system lock files share the directory lock's name as suffix.
	lockSuffix := filepath.Base(campaignstore.LockPath(dir))
	var locks []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if strings.HasSuffix(d.Name(), lockSuffix) {
			locks = append(locks, path)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(locks) > 0 {
		return fmt.Errorf("lock files left behind: %v", locks)
	}
	// Goroutines that were told to stop may take a scheduling round to
	// return; a leak is one still running after a grace period.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines running, %d before the run", runtime.NumGoroutine(), baseGoroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
