package report

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"spex/internal/campaignstore"
	"spex/internal/constraint"
	"spex/internal/designcheck"
	"spex/internal/inject"
	"spex/internal/outcomeindex"
	"spex/internal/shard"
	"spex/internal/sim"
	"spex/internal/spex"
	"spex/internal/targets"
)

// ReplayFromIndex builds the full analysis from the store's outcome
// indexes instead of its snapshots: a fresh IndexReplay over each
// target's store.LoadIndex, so a target whose snapshot cannot be read
// reports why (a stale container, say) rather than as missing.
// Inference, audits and accuracy come from the
// same spex.InferSystem results ReplayFromStore uses (they never touch
// the store); the campaign side is reconstructed from each system's
// index docs, which carry the complete projection the tables consume
// (reaction, error status, and the violated constraint's source
// location — the inputs of Report.CountByReaction and
// Report.UniqueLocations). The rendered tables are therefore
// byte-identical to ReplayFromStore's and to `spexeval -state`, without
// parsing a single outcome record: the store read is the store's
// cached index, or one sidecar per system, and the snapshots stay
// untouched.
//
// Validation mirrors ReplayFromStore: the index must cover this build's
// options identity, the constraint set the fresh inference produced,
// and every misconfiguration's replay key — anything less is
// ErrStateIncomplete, never a silently partial table.
func ReplayFromIndex(ctx context.Context, store *campaignstore.Store) ([]*SystemResult, error) {
	var idxs []*outcomeindex.System
	for _, sys := range targets.All() {
		idx, err := store.LoadIndex(sys.Name())
		if errors.Is(err, campaignstore.ErrNotExist) {
			continue // Replay names the missing system
		}
		if err != nil {
			return nil, err
		}
		idxs = append(idxs, idx)
	}
	results, _, err := new(IndexReplay).Replay(ctx, idxs)
	return results, err
}

// IndexReplay is the incremental index replay behind the daemon's
// tables. It keeps each system's SystemResult keyed by the memoised
// inference result and the index fingerprint it was built from, so
// after a write to one system only that system is validated and
// rebuilt; the others reuse their entries. The zero value is ready to
// use, and one IndexReplay is safe for concurrent use: calls are
// serialized, so concurrent readers after a write share one rebuild.
type IndexReplay struct {
	mu      sync.Mutex
	entries map[string]*replayEntry
	// last is the previous successful result and lastFPs the index
	// fingerprints it was built from, in the order the caller passed
	// them.
	last    []*SystemResult
	lastFPs []indexFP
}

// replayEntry is one system's cached analysis and its key.
type replayEntry struct {
	res *spex.Result
	fp  string
	sr  *SystemResult
}

type indexFP struct{ system, fp string }

// Replay returns the analysis of the seven targets over idxs (the
// caller's already-loaded indexes, one per stored system) and the
// number of systems it rebuilt. Results are built from exactly these
// indexes, never from a second read of the store, so a caller that
// derives an ETag from idxs serves the matching analysis. The returned
// slice and its SystemResults are shared across calls and must not be
// modified.
//
// When idxs carries the fingerprints of the previous successful call,
// Replay returns the previous slice without consulting the inference
// memo, which serves one result per target for the life of the
// process. Otherwise a system whose (inference result, fingerprint)
// key moved is rebuilt alone: its misconfigurations are generated
// again and the index is checked against them exactly as
// ReplayFromIndex checks a fresh store. Its audit and accuracy are
// reused while the inference result stays the same. A failed replay
// keeps the previous result, and the next call retries.
func (r *IndexReplay) Replay(ctx context.Context, idxs []*outcomeindex.System) ([]*SystemResult, int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fps := make([]indexFP, len(idxs))
	byName := make(map[string]*outcomeindex.System, len(idxs))
	for i, idx := range idxs {
		fps[i] = indexFP{idx.System, idx.Fingerprint}
		byName[idx.System] = idx
	}
	if r.last != nil && slices.Equal(fps, r.lastFPs) {
		return r.last, 0, nil
	}
	systems := targets.All()
	rs, err := spex.InferAll(ctx, systems, 0)
	if err != nil {
		return nil, 0, err
	}
	if r.entries == nil {
		r.entries = make(map[string]*replayEntry, len(systems))
	}
	out := make([]*SystemResult, len(systems))
	rebuilt := 0
	for i, sys := range systems {
		name := sys.Name()
		idx := byName[name]
		if idx == nil {
			return nil, rebuilt, fmt.Errorf("%w: no snapshot for %s (submit a campaign job first)", ErrStateIncomplete, name)
		}
		e := r.entries[name]
		if e == nil || e.res != rs[i] || e.fp != idx.Fingerprint {
			sr, err := replaySystem(sys, rs[i], idx, e)
			if err != nil {
				return nil, rebuilt, err
			}
			e = &replayEntry{res: rs[i], fp: idx.Fingerprint, sr: sr}
			r.entries[name] = e
			rebuilt++
		}
		out[i] = e.sr
	}
	if !slices.Equal(out, r.last) {
		r.last = out
	}
	r.lastFPs = fps
	return r.last, rebuilt, nil
}

// replaySystem validates one system's index against its fresh
// misconfiguration list and reconstructs its SystemResult. prev, when
// built from the same inference result, lends its audit and accuracy.
func replaySystem(sys sim.System, res *spex.Result, idx *outcomeindex.System, prev *replayEntry) (*SystemResult, error) {
	ws, _, err := shard.BuildWorkloads([]sim.System{sys}, []*spex.Result{res}, shard.Plan{})
	if err != nil {
		return nil, err
	}
	if err := checkStored(ws[0], idx.Options, idx.SetFingerprint, idx.Has); err != nil {
		return nil, err
	}
	sr := &SystemResult{Sys: sys, Inference: res, Campaign: campaignFromIndex(idx)}
	if prev != nil && prev.res == res {
		sr.Audit, sr.Accuracy = prev.sr.Audit, prev.sr.Accuracy
	} else {
		sr.Audit = designcheck.Run(res)
		sr.Accuracy = spex.Score(res.Set, sys.GroundTruth())
	}
	return sr, nil
}

// campaignFromIndex reconstitutes a replayed campaign report from index
// docs. The docs are a projection, not the full outcomes — but they
// carry every field the table builders consume, so the tallies
// (CountByReaction, UniqueLocations, Vulnerabilities) are identical to
// a snapshot replay's. Replay accounting matches inject.Assemble on an
// all-cached result set: every doc counts as replayed, and its sim cost
// lands on ReplayedSimCost.
func campaignFromIndex(idx *outcomeindex.System) *inject.Report {
	rep := &inject.Report{
		System:   idx.System,
		Outcomes: make([]inject.Outcome, len(idx.Docs)),
		Replayed: len(idx.Docs),
	}
	for i := range idx.Docs {
		d := &idx.Docs[i]
		rep.Outcomes[i] = inject.Outcome{
			Reaction:   inject.Reaction(d.Reaction),
			Pinpointed: d.Pinpointed,
			FailedTest: d.FailedTest,
			Loc:        constraint.SourceLoc{File: d.File, Line: d.Line, Func: d.Func},
			SimCost:    d.SimCost,
			Err:        d.Err,
		}
		rep.Outcomes[i].Misconf.ID = d.ID
		rep.Outcomes[i].Misconf.Param = d.Param
		rep.Outcomes[i].Misconf.Rule = d.Rule
		rep.Outcomes[i].Misconf.Description = d.Description
		rep.ReplayedSimCost += d.SimCost
	}
	return rep
}
