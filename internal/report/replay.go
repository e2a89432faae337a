package report

import (
	"context"
	"errors"
	"fmt"

	"spex/internal/campaignstore"
	"spex/internal/designcheck"
	"spex/internal/engine"
	"spex/internal/inject"
	"spex/internal/shard"
	"spex/internal/spex"
	"spex/internal/targets"
)

// ErrStateIncomplete reports that a state directory cannot serve a
// full read-only analysis: a system has no snapshot, the snapshot was
// recorded under different outcome-affecting options, it covers a
// different constraint set than this build infers, or it is missing
// outcomes (e.g. a campaign cancelled mid-run). The fix is always the
// same — run (or finish) a campaign against the store.
var ErrStateIncomplete = errors.New("report: campaign state incomplete")

// ReplayFromStore builds the full seven-system analysis purely from
// persisted campaign snapshots, without executing a single
// misconfiguration and without writing anything: inference comes from
// spex.InferSystem (run once per process and memoised; it is a pure
// function of each target's corpus), every campaign outcome replays
// from the store, and the audits and accuracy scores derive from that
// inference. The resulting tables are byte-identical to
// a `spexeval -state <dir>` run over the same store, because both
// reassemble replayed outcomes through inject.Assemble.
//
// This is the daemon's table-serving path (internal/server): the
// daemon holds the store's writer lock for its jobs, but serving reads
// needs no lock at all — snapshot loads are atomic documents, so a
// reader sees the last completed save even while a job is running.
// Callers that need "the tables of this exact job" should check the
// per-system snapshot fingerprints they recorded at job completion.
func ReplayFromStore(ctx context.Context, store *campaignstore.Store) ([]*SystemResult, error) {
	systems := targets.All()
	rs, err := spex.InferAll(ctx, systems, 0)
	if err != nil {
		return nil, err
	}
	ws, _, err := shard.BuildWorkloads(systems, rs, shard.Plan{})
	if err != nil {
		return nil, err
	}
	out := make([]*SystemResult, len(systems))
	for i, w := range ws {
		name := w.Sys.Name()
		snap, err := store.Load(name)
		if err != nil {
			if errors.Is(err, campaignstore.ErrNotExist) {
				return nil, fmt.Errorf("%w: no snapshot for %s (submit a campaign job first)", ErrStateIncomplete, name)
			}
			return nil, err
		}
		err = checkStored(w, snap.Options, snap.SetFingerprint, func(key string) bool {
			_, ok := snap.Outcomes[key]
			return ok
		})
		if err != nil {
			return nil, err
		}
		results := make([]engine.Result[inject.Outcome], len(w.Ms))
		for j, m := range w.Ms {
			results[j] = engine.Result[inject.Outcome]{Index: j, Value: snap.Outcomes[inject.CacheKey(m)], Cached: true}
		}
		out[i] = &SystemResult{
			Sys:       w.Sys,
			Inference: rs[i],
			Campaign:  inject.Assemble(name, w.Ms, results, nil),
			Audit:     designcheck.Run(rs[i]),
			Accuracy:  spex.Score(rs[i].Set, systems[i].GroundTruth()),
		}
	}
	return out, nil
}

// checkStored reports why a system's stored state cannot serve a
// read-only replay of workload w — recorded under other options, over
// another constraint set, or missing outcomes — as ErrStateIncomplete.
// has reports whether the store holds an outcome for a replay key.
func checkStored(w shard.Workload, options, setFingerprint string, has func(key string) bool) error {
	name := w.Sys.Name()
	if want := campaignstore.OptionsID(inject.DefaultOptions()); options != want {
		return fmt.Errorf("%w: %s snapshot was recorded under options %q, this build renders %q",
			ErrStateIncomplete, name, options, want)
	}
	if setFingerprint != w.Set.Fingerprint() {
		return fmt.Errorf("%w: %s snapshot covers a different constraint set than this build infers (stale state; rerun the campaign)",
			ErrStateIncomplete, name)
	}
	missing := 0
	for _, m := range w.Ms {
		if !has(inject.CacheKey(m)) {
			missing++
		}
	}
	if missing > 0 {
		return fmt.Errorf("%w: %s snapshot is missing %d of %d outcomes (campaign cancelled mid-run? rerun it to completion)",
			ErrStateIncomplete, name, missing, len(w.Ms))
	}
	return nil
}
