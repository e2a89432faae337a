package campaignstore

import (
	"os"
	"testing"
	"time"

	"spex/internal/inject"
)

// flipPinpointed returns a copy of outcomes with one outcome's
// Pinpointed flag inverted: a different fingerprint, the same encoded
// size.
func flipPinpointed(outcomes map[string]inject.Outcome, key string) map[string]inject.Outcome {
	out := make(map[string]inject.Outcome, len(outcomes))
	for k, o := range outcomes {
		out[k] = o
	}
	o := out[key]
	o.Pinpointed = !o.Pinpointed
	out[key] = o
	return out
}

// TestLoadIndexAfterSameSizeSaves: two back-to-back saves of one system
// with different outcomes and equal encoded size each read back their
// own fingerprint — also when the second save leaves the file with the
// first one's (size, mtime) identity, as a file system with coarse
// mtimes does.
func TestLoadIndexAfterSameSizeSaves(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	set := mkSet(basicC("p"))
	base := fixtureOutcomes(t, 12)
	var key string
	for k := range base {
		key = k
		break
	}
	snaps := []*Snapshot{
		New("storefake", set, inject.DefaultOptions(), base),
		New("storefake", set, inject.DefaultOptions(), flipPinpointed(base, key)),
	}
	// One save time for both: the header's JSON time and the varint
	// stamps would otherwise vary the encoded size.
	saved := time.Date(2026, 1, 2, 3, 4, 5, 123456789, time.UTC)
	fps := make([]string, len(snaps))
	for i, snap := range snaps {
		snap.SavedAt, snap.Stamps = saved, nil
		if fps[i], err = snap.Fingerprint(); err != nil {
			t.Fatal(err)
		}
	}
	if fps[0] == fps[1] {
		t.Fatal("flipping Pinpointed did not change the fingerprint")
	}

	var first os.FileInfo
	for round := 0; round < 4; round++ {
		for i, snap := range snaps {
			if err := store.save(snap); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(store.Path("storefake"))
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = fi
			} else if fi.Size() != first.Size() {
				t.Fatalf("save %d is %d bytes, the first %d: the saves must be the same size", i, fi.Size(), first.Size())
			}
			if round%2 == 1 {
				// Pin the file to the first save's identity.
				if err := os.Chtimes(store.Path("storefake"), first.ModTime(), first.ModTime()); err != nil {
					t.Fatal(err)
				}
			}
			idx, err := store.LoadIndex("storefake")
			if err != nil {
				t.Fatal(err)
			}
			if idx.Fingerprint != fps[i] {
				t.Fatalf("round %d, save %d: LoadIndex fingerprint %s, want %s", round, i, idx.Fingerprint, fps[i])
			}
		}
	}
}

// TestSaveWritesIndexThrough: after a save, LoadIndex serves the index
// the save built without reading anything back — not even the sidecar
// — and keeps serving that one copy until the snapshot changes.
func TestSaveWritesIndexThrough(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := New("storefake", mkSet(basicC("p")), inject.DefaultOptions(), fixtureOutcomes(t, 8))
	if err := store.save(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(store.IndexPath("storefake")); err != nil {
		t.Fatal(err)
	}
	hits, rebuilds := mIndexHits.Value(), mIndexRebuilds.Value()
	a, err := store.LoadIndex("storefake")
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.LoadIndex("storefake")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("two reads of an unchanged snapshot returned different index copies")
	}
	if got := mIndexRebuilds.Value() - rebuilds; got != 0 {
		t.Errorf("reads after a save loaded %d indexes from disk, want 0", got)
	}
	if got := mIndexHits.Value() - hits; got < 2 {
		t.Errorf("index cache hits moved by %d, want >= 2", got)
	}
	if _, err := os.Stat(store.IndexPath("storefake")); !os.IsNotExist(err) {
		t.Errorf("a cache hit rewrote the deleted sidecar (stat: %v)", err)
	}
}

// TestLoadIndexRacingSaves: readers that miss the cache while saves
// keep landing never leave an older index installed over a newer
// save's. Once the saves stop, every read returns the last one's
// fingerprint.
func TestLoadIndexRacingSaves(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	set := mkSet(basicC("p"))
	base := fixtureOutcomes(t, 12)
	var key string
	for k := range base {
		key = k
		break
	}
	snaps := []*Snapshot{
		New("storefake", set, inject.DefaultOptions(), base),
		New("storefake", set, inject.DefaultOptions(), flipPinpointed(base, key)),
	}
	saved := time.Date(2026, 1, 2, 3, 4, 5, 123456789, time.UTC)
	for _, snap := range snaps {
		snap.SavedAt, snap.Stamps = saved, nil
	}
	last := snaps[len(snaps)-1]
	want, err := last.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.save(snaps[0]); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	readers := make(chan error, 4)
	for r := 0; r < cap(readers); r++ {
		go func() {
			for {
				select {
				case <-stop:
					readers <- nil
					return
				default:
				}
				if _, err := store.LoadIndex("storefake"); err != nil {
					readers <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		if err := store.save(snaps[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for r := 0; r < cap(readers); r++ {
		if err := <-readers; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		idx, err := store.LoadIndex("storefake")
		if err != nil {
			t.Fatal(err)
		}
		if idx.Fingerprint != want {
			t.Fatalf("after the saves, LoadIndex fingerprint %s, want the last save's %s", idx.Fingerprint, want)
		}
	}
}
