package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/coord"
	"spex/internal/inject"
	"spex/internal/report"
	"spex/internal/shard"
	"spex/internal/targets"
)

// analyzeOptions is spexeval's default path at the benchmark's thread
// budget: two systems at a time, each campaign sequential.
var analyzeOptions = report.AnalyzeOptions{Workers: procs, CampaignWorkers: 1}

// pipeline is one closed-loop workload: a timed job that produces the
// seven systems' results, followed by reading (rendering and checking)
// every table and figure.
type pipeline struct {
	// prepare runs untimed before each iteration (may be nil).
	prepare func(ctx context.Context) error
	// job is the timed work; it reports how many misconfigurations it
	// classified and fails on any harness error or inconsistency.
	job func(ctx context.Context) ([]*report.SystemResult, int, error)
	// finish runs untimed after each iteration (may be nil).
	finish func() error
}

// loopStats are the samples of one measured loop.
type loopStats struct {
	pipeline, job, read samples
	misconfs, iters     int
	elapsed             time.Duration // the time the rates are taken over
	alloc               uint64
}

// loop runs iterations until the duration has passed (at least one).
func (p *pipeline) loop(ctx context.Context, d time.Duration, ops *opCounter) (*loopStats, error) {
	st := &loopStats{}
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if p.prepare != nil {
			if !ops.check("prepare", p.prepare(ctx)) {
				continue
			}
		}
		a0 := heapAlloc()
		start := time.Now()
		results, n, err := p.job(ctx)
		jobDur := time.Since(start)
		if ops.check("job", err) {
			st.job.add(jobDur)
			st.misconfs += n
			readOutputs(results, ops, &st.read)
		}
		dur := time.Since(start)
		st.alloc += heapAlloc() - a0
		st.pipeline.add(dur)
		st.elapsed += dur
		st.iters++
		if p.finish != nil {
			ops.check("finish", p.finish())
		}
	}
	return st, nil
}

// endToEnd turns one loop's samples into the end-to-end metrics other
// than setup_s, ok_frac and peak_rss_mb, which cover the whole run.
func (st *loopStats) endToEnd() map[string]metric {
	secs := st.elapsed.Seconds()
	return map[string]metric{
		"pipeline_ms.p50":   {st.pipeline.quantile(0.5), "ms"},
		"pipeline_ms.p90":   {st.pipeline.quantile(0.9), "ms"},
		"job_ms.p50":        {st.job.quantile(0.5), "ms"},
		"job_ms.p90":        {st.job.quantile(0.9), "ms"},
		"read_ms.p50":       {st.read.quantile(0.5), "ms"},
		"read_ms.p95":       {st.read.quantile(0.95), "ms"},
		"reads_per_s":       {float64(len(st.read)) / secs, "1/s"},
		"misconfs_per_s":    {float64(st.misconfs) / secs, "1/s"},
		"alloc_mb_per_iter": {mb(st.alloc) / float64(st.iters), "MB"},
	}
}

// checkCampaigns verifies every system's campaign finished without a
// harness error or skipped outcome and returns the outcome count.
func checkCampaigns(results []*report.SystemResult) (int, error) {
	n := 0
	for _, r := range results {
		rep := r.Campaign
		if errs := rep.Errors(); len(errs) > 0 || rep.Skipped > 0 {
			return 0, fmt.Errorf("%s: %d harness errors, %d skipped", r.Sys.Name(), len(errs), rep.Skipped)
		}
		if r.StateErr != nil {
			return 0, fmt.Errorf("%s: %w", r.Sys.Name(), r.StateErr)
		}
		n += len(rep.Outcomes)
	}
	return n, nil
}

// ---- cold-eval ----

// runColdEval is spexeval's default path in a closed loop: every
// misconfiguration boots and runs its tests fresh.
func runColdEval(cfg config, ops *opCounter) *bench {
	p := &pipeline{
		job: func(ctx context.Context) ([]*report.SystemResult, int, error) {
			results, err := report.AnalyzeAllContext(ctx, analyzeOptions)
			if err != nil {
				return nil, 0, err
			}
			n, err := checkCampaigns(results)
			return results, n, err
		},
	}
	return &bench{
		// Set-up is a warm-up iteration: it pays the process's one-time
		// work (the cached mapping survey behind Table 2, lazy tables).
		setup: p.warmUp(ops),
		loop: func(ctx context.Context, d time.Duration, _ *tracer) (*loopStats, error) {
			return p.loop(ctx, d, ops)
		},
		layers: func(ctx context.Context, _ *tracer) (map[string]metric, error) {
			return layerMetrics(ctx, cfg, ops)
		},
	}
}

// warmUp returns a set-up that runs one untimed iteration and checks its
// outputs; a mismatch is counted as a failed operation.
func (p *pipeline) warmUp(ops *opCounter) func(ctx context.Context) error {
	return func(ctx context.Context) error {
		results, _, err := p.job(ctx)
		if err != nil {
			return err
		}
		var reads samples
		readOutputs(results, ops, &reads)
		if p.finish != nil {
			return p.finish()
		}
		return nil
	}
}

// ---- incremental ----

// runIncremental is `spexeval -state`: the store holds every outcome,
// and before each iteration a seeded tenth of every system's outcomes
// is dropped, so the timed analysis replays nine tenths and executes the
// rest.
func runIncremental(cfg config, ops *opCounter) *bench {
	rng := rand.New(rand.NewSource(cfg.seed))
	var (
		store   *campaignstore.Store
		lock    *campaignstore.Lock
		dropped map[string]int
	)
	p := &pipeline{
		prepare: func(context.Context) error {
			var err error
			dropped, err = dropOutcomes(store, lock, rng, 10)
			return err
		},
		job: func(ctx context.Context) ([]*report.SystemResult, int, error) {
			opts := analyzeOptions
			opts.State = lock.Set()
			results, err := report.AnalyzeAllContext(ctx, opts)
			if err != nil {
				return nil, 0, err
			}
			n, err := checkCampaigns(results)
			if err != nil {
				return nil, 0, err
			}
			for _, r := range results {
				rep, want := r.Campaign, dropped[r.Sys.Name()]
				if executed := rep.Finished() - rep.Replayed; executed != want {
					return nil, 0, fmt.Errorf("%s: executed %d outcomes, %d were dropped", r.Sys.Name(), executed, want)
				}
			}
			return results, n, nil
		},
	}
	return &bench{
		setup: func(ctx context.Context) error {
			var err error
			store, lock, err = fillStore(ctx, filepath.Join(cfg.dir, "incremental"))
			return err
		},
		loop: func(ctx context.Context, d time.Duration, _ *tracer) (*loopStats, error) {
			return p.loop(ctx, d, ops)
		},
		layers: func(ctx context.Context, _ *tracer) (map[string]metric, error) {
			return layerMetrics(ctx, cfg, ops)
		},
		close: func(context.Context) error {
			if lock == nil {
				return nil
			}
			return lock.Unlock()
		},
	}
}

// fillStore campaigns every system into a fresh store and returns it
// with its writer lock still held; the caller releases the lock.
func fillStore(ctx context.Context, dir string) (*campaignstore.Store, *campaignstore.Lock, error) {
	store, err := campaignstore.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	lock, err := store.Lock()
	if err != nil {
		return nil, nil, err
	}
	opts := analyzeOptions
	opts.State = lock.Set()
	results, err := report.AnalyzeAllContext(ctx, opts)
	if err == nil {
		_, err = checkCampaigns(results)
	}
	if err != nil {
		return nil, nil, errors.Join(err, lock.Unlock())
	}
	return store, lock, nil
}

// dropOutcomes removes a seeded 1/fraction of every system's stored
// outcomes through the held lock and returns how many it dropped per
// system.
func dropOutcomes(store *campaignstore.Store, lock *campaignstore.Lock, rng *rand.Rand, fraction int) (map[string]int, error) {
	dropped := map[string]int{}
	for _, sys := range targets.All() {
		name := sys.Name()
		snap, err := store.Load(name)
		if err != nil {
			return nil, err
		}
		keys := make([]string, 0, len(snap.Outcomes))
		for k := range snap.Outcomes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		n := len(keys) / fraction
		for _, k := range keys[:n] {
			delete(snap.Outcomes, k)
			delete(snap.Stamps, k)
		}
		if err := lock.Save(snap); err != nil {
			return nil, err
		}
		dropped[name] = n
	}
	return dropped, nil
}

// ---- coordinate ----

// coordStats accumulates what the coordinated iterations observed.
type coordStats struct {
	mu                      sync.Mutex
	steals, spawns, yielded int
	runs                    int
	run, worker, tail       samples
	merge                   samples
	lastWorkerEnd           time.Time
}

// coordinateJob returns a job that campaigns every system through
// coord.Run (two worker slots, in-process workers of pool width 1, as
// spexd runs them by default) on a fresh state directory and renders
// from the merged store. With mergeProbe set, the worker shard
// directories are also merged into a second fresh store, untimed, to
// time shard.Merge alone.
func coordinateJob(dir string, st *coordStats, mergeProbe bool) (job func(ctx context.Context) ([]*report.SystemResult, int, error), cleanup func() error) {
	seq := 0
	var stateDir string
	systems := targets.All()
	job = func(ctx context.Context) ([]*report.SystemResult, int, error) {
		seq++
		stateDir = filepath.Join(dir, fmt.Sprintf("coordinate-%d", seq))
		spawn := func(ctx context.Context, spec coord.WorkerSpec) (coord.Handle, error) {
			wctx, cancel := context.WithCancel(ctx)
			done := make(chan error, 1)
			go func() {
				start := time.Now()
				res, err := coord.RunWorker(wctx, spec.LeasePath, spec.StateDir, systems,
					coord.WorkerOptions{Workers: 1, Inject: inject.DefaultOptions()})
				end := time.Now()
				st.mu.Lock()
				st.worker.add(end.Sub(start))
				if res != nil {
					st.yielded += res.Yielded
				}
				st.lastWorkerEnd = end
				st.mu.Unlock()
				done <- err
			}()
			return &workerHandle{cancel: cancel, done: done}, nil
		}
		start := time.Now()
		res, err := coord.Run(ctx, coord.Config{
			StateDir:      stateDir,
			Workers:       2,
			Systems:       systems,
			Inject:        inject.DefaultOptions(),
			PoolWorkers:   1,
			StealMin:      coord.DefaultStealMin,
			WorkerRetries: coord.DefaultWorkerRetries,
			Spawn:         spawn,
		})
		runEnd := time.Now()
		if err != nil {
			return nil, 0, err
		}
		st.mu.Lock()
		st.steals += res.Steals
		st.spawns += res.Spawns
		st.runs++
		st.run.add(runEnd.Sub(start))
		st.tail.add(runEnd.Sub(st.lastWorkerEnd))
		st.mu.Unlock()
		n := 0
		for _, ms := range res.Stats {
			n += ms.Outcomes
		}
		store, err := campaignstore.Open(stateDir)
		if err != nil {
			return nil, 0, err
		}
		results, err := report.ReplayFromStore(ctx, store)
		if err != nil {
			return nil, 0, err
		}
		if _, err := checkCampaigns(results); err != nil {
			return nil, 0, err
		}
		return results, n, nil
	}
	cleanup = func() error {
		if mergeProbe {
			d, err := timeMerge(stateDir, filepath.Join(dir, fmt.Sprintf("merged-%d", seq)))
			if err != nil {
				return err
			}
			st.mu.Lock()
			st.merge.add(d)
			st.mu.Unlock()
		}
		return os.RemoveAll(stateDir)
	}
	return job, cleanup
}

// timeMerge merges a coordinated run's worker shard directories into a
// fresh store and returns how long shard.Merge took.
func timeMerge(stateDir, dst string) (time.Duration, error) {
	defer os.RemoveAll(dst)
	store, err := campaignstore.Open(dst)
	if err != nil {
		return 0, err
	}
	lock, err := store.Lock()
	if err != nil {
		return 0, err
	}
	srcs := []string{coord.ShardDir(stateDir, 1), coord.ShardDir(stateDir, 2)}
	var mergeErr error
	d := timed(func() { _, mergeErr = shard.Merge(lock.Set(), srcs) })
	if err := lock.Unlock(); err != nil && mergeErr == nil {
		mergeErr = err
	}
	return d, mergeErr
}

type workerHandle struct {
	cancel context.CancelFunc
	done   chan error
}

func (h *workerHandle) Wait() error {
	err := <-h.done
	h.cancel()
	return err
}

func (h *workerHandle) Interrupt() { h.cancel() }

// coordMetrics turns the coordinated iterations into coord's and
// shard's per-layer metrics.
func coordMetrics(st *coordStats) map[string]metric {
	st.mu.Lock()
	defer st.mu.Unlock()
	runs := float64(st.runs)
	return map[string]metric{
		"coord.run_ms":    {st.run.quantile(0.5), "ms"},
		"coord.worker_ms": {st.worker.quantile(0.5), "ms"},
		"coord.tail_ms":   {st.tail.quantile(0.5), "ms"},
		"coord.steals":    {float64(st.steals) / runs, "count"},
		"coord.spawns":    {float64(st.spawns) / runs, "count"},
		"coord.yielded":   {float64(st.yielded) / runs, "count"},
		"shard.merge_ms":  {st.merge.quantile(0.5), "ms"},
	}
}

// runCoordinate runs the campaign under the work-stealing coordinator:
// leases, heartbeat polling, stealing and the final shard merge, which
// no other workload executes.
func runCoordinate(cfg config, ops *opCounter) *bench {
	st := &coordStats{}
	job, cleanup := coordinateJob(cfg.dir, st, cfg.trace)
	p := &pipeline{job: job, finish: cleanup}
	return &bench{
		setup: p.warmUp(ops),
		loop: func(ctx context.Context, d time.Duration, _ *tracer) (*loopStats, error) {
			return p.loop(ctx, d, ops)
		},
		layers: func(ctx context.Context, _ *tracer) (map[string]metric, error) {
			m, err := layerMetrics(ctx, cfg, ops)
			if err != nil {
				return nil, err
			}
			for k, v := range coordMetrics(st) {
				m[k] = v
			}
			return m, nil
		},
	}
}
