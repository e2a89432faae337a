package spex_test

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"sync"
	"testing"

	"spex/internal/apispec"
	"spex/internal/campaignstore"
	"spex/internal/designcheck"
	"spex/internal/report"
	"spex/internal/shard"
	"spex/internal/spex"
	"spex/internal/targets"
)

// snapshot encodes every part of a result byte for byte, in its stored
// order, so any write through the shared pointer shows. Observation
// order depends on map iteration inside dataflow, so comparing with
// another inference run needs sortObs, which encodes the observations
// as a sorted multiset.
func snapshot(t *testing.T, r *spex.Result, sortObs bool) []byte {
	t.Helper()
	obs := make([]string, len(r.Obs))
	for i, o := range r.Obs {
		b, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		obs[i] = string(b)
	}
	if sortObs {
		sort.Strings(obs)
	}
	var buf bytes.Buffer
	for _, part := range []any{
		r.Set, r.Set.Constraints, r.Pairs, obs, r.Unsafe,
		[]any{r.System, r.LoA, r.LoC, r.Params, r.Convention},
	} {
		b, err := json.Marshal(part)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestMemoisedResultsStayReadOnly: every consumer of inference output,
// run concurrently, leaves the shared memoised results unchanged, and
// those results still equal a fresh, uncached inference.
func TestMemoisedResultsStayReadOnly(t *testing.T) {
	ctx := context.Background()
	systems := targets.All()
	memo := make([]*spex.Result, len(systems))
	before := make([][]byte, len(systems))
	for i, sys := range systems {
		res, err := spex.InferSystem(sys)
		if err != nil {
			t.Fatal(err)
		}
		memo[i], before[i] = res, snapshot(t, res, false)
		db := apispec.New()
		if imp, ok := sys.(spex.APIImporter); ok {
			imp.ImportAPIs(db)
		}
		fresh, err := spex.Infer(sys.Name(), sys.Sources(), sys.Annotations(), sys.Manual(), db, spex.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshot(t, res, true), snapshot(t, fresh, true)) {
			t.Errorf("%s: the memoised result no longer equals Infer's; something wrote to it", sys.Name())
		}
	}

	store, err := campaignstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	render := func(rs []*report.SystemResult) {
		for i, r := range rs {
			if r.Inference != memo[i] {
				t.Errorf("%s: analysis used a result other than the memoised one", r.Sys.Name())
			}
		}
		for n := 1; n <= report.MaxTable; n++ {
			if _, err := report.RenderTableText(n, rs); err != nil {
				t.Error(err)
			}
		}
		report.Figure3(rs)
		report.Figure4()
		report.Figure6(rs)
		for _, fig := range []func() (string, error){report.Figure1, report.Figure2, report.Figure5, report.Figure7} {
			if _, err := fig(); err != nil {
				t.Error(err)
			}
		}
	}
	jobs := []func(){
		func() {
			rs, err := report.AnalyzeAllContext(ctx, report.AnalyzeOptions{Workers: 2})
			if err != nil {
				t.Error(err)
				return
			}
			render(rs)
		},
		func() {
			rs, err := report.AnalyzeAllContext(ctx, report.AnalyzeOptions{Workers: 2, Global: true})
			if err != nil {
				t.Error(err)
				return
			}
			render(rs)
		},
		func() {
			lk, err := store.Lock()
			if err != nil {
				t.Error(err)
				return
			}
			_, err = report.AnalyzeAllContext(ctx, report.AnalyzeOptions{Workers: 2, State: lk.Set()})
			if uerr := lk.Unlock(); uerr != nil {
				t.Error(uerr)
			}
			if err != nil {
				t.Error(err)
				return
			}
			rs, err := report.ReplayFromIndex(ctx, store)
			if err != nil {
				t.Error(err)
				return
			}
			render(rs)
		},
		func() {
			if _, _, err := shard.BuildWorkloads(systems, memo, shard.Plan{}); err != nil {
				t.Error(err)
			}
		},
	}
	for i, sys := range systems {
		res := memo[i]
		jobs = append(jobs, func() {
			designcheck.Run(res)
			spex.Score(res.Set, sys.GroundTruth())
		})
	}
	var wg sync.WaitGroup
	for _, job := range jobs {
		wg.Add(1)
		go func(job func()) {
			defer wg.Done()
			job()
		}(job)
	}
	wg.Wait()

	for i, sys := range systems {
		if !bytes.Equal(snapshot(t, memo[i], false), before[i]) {
			t.Errorf("%s: the memoised result changed while the pipeline read it", sys.Name())
		}
	}
}
