package report

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"spex/internal/campaignstore"
	"spex/internal/inject"
	"spex/internal/targets"
)

// filledState runs the full analysis against a fresh state directory,
// so every target has a complete snapshot, and returns the held lock
// set (whose Store is the one the saves wrote through).
func filledState(tb testing.TB) *campaignstore.LockSet {
	tb.Helper()
	state := lockedState(tb, tb.TempDir())
	if _, err := AnalyzeAllContext(context.Background(), AnalyzeOptions{State: state}); err != nil {
		tb.Fatal(err)
	}
	return state
}

// flippedSnapshots loads the system's snapshot and returns it with a
// copy in which one outcome's Pinpointed flag is inverted: the same
// keys, a different fingerprint.
func flippedSnapshots(tb testing.TB, store *campaignstore.Store, system string) (orig, flipped *campaignstore.Snapshot) {
	tb.Helper()
	orig, err := store.Load(system)
	if err != nil {
		tb.Fatal(err)
	}
	keys := make([]string, 0, len(orig.Outcomes))
	for k := range orig.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cp := *orig
	cp.Outcomes = make(map[string]inject.Outcome, len(orig.Outcomes))
	for k, o := range orig.Outcomes {
		cp.Outcomes[k] = o
	}
	o := cp.Outcomes[keys[0]]
	o.Pinpointed = !o.Pinpointed
	cp.Outcomes[keys[0]] = o
	return orig, &cp
}

// renderAll renders every table (9 and 10 together) and the two
// campaign-consuming figures into one string.
func renderAll(t *testing.T, rs []*SystemResult) string {
	t.Helper()
	out := ""
	for n := 1; n <= MaxTable; n++ {
		if n == 10 {
			continue
		}
		text, err := RenderTableText(n, rs)
		if err != nil {
			t.Fatal(err)
		}
		out += text + "\n"
	}
	return out + Figure3(rs) + Figure6(rs)
}

// TestIndexReplayRebuildsOnlyMovedSystems: the first replay builds all
// seven systems, an unchanged store rebuilds none and returns the same
// slice, a rewrite with the same fingerprint rebuilds none, and a
// changed outcome in one system rebuilds that system alone. Every
// result renders byte-identically to a fresh ReplayFromIndex.
func TestIndexReplayRebuildsOnlyMovedSystems(t *testing.T) {
	ctx := context.Background()
	state := filledState(t)
	store := state.Store()
	var r IndexReplay
	replay := func(want int) []*SystemResult {
		t.Helper()
		idxs, err := store.LoadIndexAll()
		if err != nil {
			t.Fatal(err)
		}
		rs, rebuilt, err := r.Replay(ctx, idxs)
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt != want {
			t.Fatalf("replay rebuilt %d systems, want %d", rebuilt, want)
		}
		fresh, err := ReplayFromIndex(ctx, store)
		if err != nil {
			t.Fatal(err)
		}
		if renderAll(t, rs) != renderAll(t, fresh) {
			t.Fatal("incremental replay renders differently from a fresh ReplayFromIndex")
		}
		return rs
	}

	first := replay(len(targets.All()))
	if again := replay(0); &again[0] != &first[0] {
		t.Error("an unchanged store did not return the previous slice")
	}

	orig, flipped := flippedSnapshots(t, store, "proxyd")
	// Same outcomes, new save: the fingerprint (and the key) stay.
	if err := state.Save(orig); err != nil {
		t.Fatal(err)
	}
	replay(0)

	if err := state.Save(flipped); err != nil {
		t.Fatal(err)
	}
	moved := replay(1)
	for i, sr := range moved {
		same := sr == first[i]
		if proxy := sr.Sys.Name() == "proxyd"; same == proxy {
			t.Errorf("%s: result reused = %v after a write to proxyd only", sr.Sys.Name(), same)
		}
	}

	// A snapshot that lost outcomes fails the replay; the previous
	// analysis stays cached and the repaired store rebuilds one system.
	lost := *orig
	lost.Outcomes = map[string]inject.Outcome{}
	for k, o := range orig.Outcomes {
		if len(lost.Outcomes) < len(orig.Outcomes)-1 {
			lost.Outcomes[k] = o
		}
	}
	if err := state.Save(&lost); err != nil {
		t.Fatal(err)
	}
	idxs, err := store.LoadIndexAll()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Replay(ctx, idxs); !errors.Is(err, ErrStateIncomplete) {
		t.Fatalf("replay over a snapshot missing an outcome: %v, want ErrStateIncomplete", err)
	}
	if err := state.Save(orig); err != nil {
		t.Fatal(err)
	}
	replay(1)
}

// TestIndexReplayUsesGivenIndexes: a replay renders the indexes it is
// handed, not whatever the store holds by the time it runs — the
// property that lets the daemon derive a table's ETag and its body
// from one read.
func TestIndexReplayUsesGivenIndexes(t *testing.T) {
	ctx := context.Background()
	state := filledState(t)
	store := state.Store()
	before, err := store.LoadIndexAll()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReplayFromIndex(ctx, store)
	if err != nil {
		t.Fatal(err)
	}

	// Turn one outcome into a crash: a different Table 3 tally.
	orig, changed := flippedSnapshots(t, store, "proxyd")
	for k, o := range orig.Outcomes {
		if o.Reaction != inject.ReactionCrash && o.Err == "" {
			o.Reaction = inject.ReactionCrash
			changed.Outcomes[k] = o
			break
		}
	}
	if err := state.Save(changed); err != nil {
		t.Fatal(err)
	}
	now, err := ReplayFromIndex(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	if renderAll(t, now) == renderAll(t, want) {
		t.Fatal("the changed outcome does not show in the tables; the test cannot tell the two states apart")
	}

	var r IndexReplay
	got, _, err := r.Replay(ctx, before)
	if err != nil {
		t.Fatal(err)
	}
	if renderAll(t, got) != renderAll(t, want) {
		t.Error("replay of the earlier indexes rendered the store's later state")
	}
}

// BenchmarkIndexReplayOneSystemWrite is the read model's steady state
// under writes: each iteration saves one system with one outcome
// flipped (a new fingerprint, every key still present), loads every
// index, and replays the tables incrementally — one system rebuilt,
// six reused. B/op is the CI allocation gate's figure.
func BenchmarkIndexReplayOneSystemWrite(b *testing.B) {
	ctx := context.Background()
	state := filledState(b)
	store := state.Store()
	orig, flipped := flippedSnapshots(b, store, "proxyd")
	snaps := [2]*campaignstore.Snapshot{flipped, orig}
	var r IndexReplay
	idxs, err := store.LoadIndexAll()
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := r.Replay(ctx, idxs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := state.Save(snaps[i%2]); err != nil {
			b.Fatal(err)
		}
		idxs, err := store.LoadIndexAll()
		if err != nil {
			b.Fatal(err)
		}
		_, rebuilt, err := r.Replay(ctx, idxs)
		if err != nil {
			b.Fatal(err)
		}
		if rebuilt != 1 {
			b.Fatalf("replay rebuilt %d systems, want 1", rebuilt)
		}
	}
}

// TestReplayFromIndexNamesStaleContainer: a target whose snapshot is in
// the older container version fails the index replay as ErrStale, the
// error that says why, not as a missing snapshot.
func TestReplayFromIndexNamesStaleContainer(t *testing.T) {
	path := filledState(t).Store().Path("proxyd")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "SPEXSNP1")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := campaignstore.Open(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayFromIndex(context.Background(), store); !errors.Is(err, campaignstore.ErrStale) {
		t.Fatalf("ReplayFromIndex over a SPEXSNP1 snapshot: %v, want ErrStale", err)
	}
}
