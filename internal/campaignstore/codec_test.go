package campaignstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"strings"
	"testing"

	"spex/internal/inject"
)

// fixtureOutcomes builds a deterministic outcome map large enough to
// exercise multi-record streaming.
func fixtureOutcomes(t testing.TB, n int) map[string]inject.Outcome {
	t.Helper()
	c := basicC("p")
	out := make(map[string]inject.Outcome, n)
	for i, m := range misconfs(c, n) {
		o := inject.Outcome{Misconf: m, Reaction: inject.Reaction(i % 4), SimCost: i, Pinpointed: i%2 == 0}
		if i%3 == 1 {
			o.FailedTest = "ping"
			o.LogDump = "ERR request failed\n"
		}
		out[inject.CacheKey(m)] = o
	}
	return out
}

func TestBinarySnapshotRoundTrip(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	set := mkSet(basicC("p"), rangeC("q", 1))
	outcomes := fixtureOutcomes(t, 24)
	snap := New("storefake", set, inject.DefaultOptions(), outcomes)
	wantFP, err := snap.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.save(snap); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(store.Path("storefake"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, snapMagic) {
		t.Fatalf("saved snapshot does not start with the binary magic: % x", data[:8])
	}
	if _, err := os.Stat(store.LegacyPath("storefake")); !os.IsNotExist(err) {
		t.Fatalf("binary save left a legacy JSON file: %v", err)
	}

	got, err := store.Load("storefake")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Outcomes, outcomes) {
		t.Fatal("binary round trip changed the outcome map")
	}
	if got.Schema != SchemaFingerprint() || got.Options != snap.Options ||
		got.SetFingerprint != set.Fingerprint() ||
		got.Constraints == nil || got.Constraints.Fingerprint() != set.Fingerprint() {
		t.Fatalf("header fields lost in round trip: %+v", got)
	}
	gotFP, err := got.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != wantFP {
		t.Fatalf("fingerprint changed across the binary round trip: %s != %s", gotFP, wantFP)
	}
	// Stamps survive (Save stamps unstamped keys with SavedAt).
	for k := range outcomes {
		if got.Stamps[k].IsZero() {
			t.Fatalf("key %s lost its freshness stamp", k)
		}
	}
}

// TestLegacyJSONMigratesOnSave is the format-compat contract: a v2 JSON
// store (produced by the previous format via the SPEX_SNAPSHOT_JSON
// hatch) loads transparently, and the next save migrates it to the
// binary container with an identical snapshot fingerprint — migration
// never perturbs replay equivalence.
func TestLegacyJSONMigratesOnSave(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	set := mkSet(basicC("p"))
	outcomes := fixtureOutcomes(t, 12)

	t.Setenv(legacyJSONEnv, "1")
	if err := store.save(New("storefake", set, inject.DefaultOptions(), outcomes)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(store.LegacyPath("storefake")); err != nil {
		t.Fatalf("legacy hatch did not write the JSON file: %v", err)
	}
	if _, err := os.Stat(store.Path("storefake")); !os.IsNotExist(err) {
		t.Fatalf("legacy hatch wrote a binary file too: %v", err)
	}
	t.Setenv(legacyJSONEnv, "")

	// The JSON-era store loads transparently through the same API.
	snap, err := store.Load("storefake")
	if err != nil {
		t.Fatalf("legacy JSON store did not load: %v", err)
	}
	legacyFP, err := snap.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if names, err := store.List(); err != nil || len(names) != 1 || names[0] != "storefake" {
		t.Fatalf("List over a legacy store = %v, %v", names, err)
	}

	// Saving migrates: binary appears, the JSON file is removed, and
	// the fingerprint is bit-identical.
	if err := store.save(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(store.Path("storefake")); err != nil {
		t.Fatalf("migration did not write the binary file: %v", err)
	}
	if _, err := os.Stat(store.LegacyPath("storefake")); !os.IsNotExist(err) {
		t.Fatalf("migration left the legacy JSON file behind: %v", err)
	}
	migrated, err := store.Load("storefake")
	if err != nil {
		t.Fatal(err)
	}
	migratedFP, err := migrated.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if migratedFP != legacyFP {
		t.Fatalf("migration changed the snapshot fingerprint: %s != %s", migratedFP, legacyFP)
	}
	if !reflect.DeepEqual(migrated.Outcomes, snap.Outcomes) {
		t.Fatal("migration changed the outcome map")
	}
}

func TestCorruptBinarySnapshotRejected(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	set := mkSet(basicC("p"))
	if err := store.save(New("storefake", set, inject.DefaultOptions(), fixtureOutcomes(t, 12))); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.Path("storefake"))
	if err != nil {
		t.Fatal(err)
	}

	// Truncation at any depth must be loud, never a partial load.
	for _, cut := range []int{len(data) - 3, len(data) / 2, len(snapMagic) + 2} {
		if err := os.WriteFile(store.Path("storefake"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Load("storefake"); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("truncation at %d loaded anyway: %v", cut, err)
		}
	}

	// A flipped bit in the record region fails the CRC (or an inner
	// frame check) — either way the load reports corruption.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-10] ^= 0xff
	if err := os.WriteFile(store.Path("storefake"), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("storefake"); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("bit flip loaded anyway: %v", err)
	}
}

// TestCampaignFallsBackOnCorruptBinary: the fail-safe semantics carry
// over from the JSON era — a truncated binary snapshot triggers a full
// campaign that rebuilds it, never a partial replay.
func TestCampaignFallsBackOnCorruptBinary(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sys := &storeSystem{}
	c := basicC("p")
	set := mkSet(c)
	ms := misconfs(c, 6)
	if _, _, err := Campaign(context.Background(), testWriter(store, sys.Name()), sys, set, ms, inject.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.Path(sys.Name()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(sys.Name()), data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	boots := sys.boots.Load()
	rep, st, err := Campaign(context.Background(), testWriter(store, sys.Name()), sys, set, ms, inject.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed || !strings.Contains(st.Fallback, "corrupt") {
		t.Fatalf("status = %+v, want corrupt-snapshot fallback", st)
	}
	if rep.Replayed != 0 {
		t.Fatalf("corrupt snapshot replayed %d outcomes", rep.Replayed)
	}
	if got := sys.boots.Load() - boots; got != 6 {
		t.Fatalf("fallback booted %d times, want the full 6", got)
	}
	if _, err := store.Load(sys.Name()); err != nil {
		t.Fatalf("snapshot not rebuilt after fallback: %v", err)
	}
}

// TestLoadIndexSidecar: a save writes the index sidecar; LoadIndex
// serves it while fresh and rebuilds (and rewrites it) when it is
// missing or stale.
func TestLoadIndexSidecar(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	set := mkSet(basicC("p"))
	outcomes := fixtureOutcomes(t, 18)
	snap := New("storefake", set, inject.DefaultOptions(), outcomes)
	if err := store.save(snap); err != nil {
		t.Fatal(err)
	}
	fp, err := snap.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(store.IndexPath("storefake")); err != nil {
		t.Fatalf("save did not write the index sidecar: %v", err)
	}

	idx, err := store.LoadIndex("storefake")
	if err != nil {
		t.Fatal(err)
	}
	if idx.System != "storefake" || idx.Fingerprint != fp || len(idx.Docs) != len(outcomes) {
		t.Fatalf("sidecar index wrong: system=%q fp=%s docs=%d", idx.System, idx.Fingerprint, len(idx.Docs))
	}

	// Deleting the sidecar forces a rebuild from the snapshot with the
	// same content, and the rebuild rewrites the sidecar. Each disk
	// read below goes through a fresh Store, as another process's
	// would: the saving Store serves its written-through index from
	// memory.
	if err := os.Remove(store.IndexPath("storefake")); err != nil {
		t.Fatal(err)
	}
	reopen := func() *Store {
		t.Helper()
		fresh, err := Open(store.dir)
		if err != nil {
			t.Fatal(err)
		}
		return fresh
	}
	rebuilt, err := reopen().LoadIndex("storefake")
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Fingerprint != fp || len(rebuilt.Docs) != len(idx.Docs) ||
		!reflect.DeepEqual(rebuilt.Agg, idx.Agg) {
		t.Fatal("rebuilt index differs from the sidecar index")
	}
	if _, err := os.Stat(store.IndexPath("storefake")); err != nil {
		t.Fatalf("rebuild did not rewrite the sidecar: %v", err)
	}

	// A sidecar whose recorded snapshot identity no longer matches is
	// stale: garbage in the file must never be served.
	if err := os.WriteFile(store.IndexPath("storefake"), []byte(`{"version":1,"snap":"other","sys":{"system":"storefake"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	again, err := reopen().LoadIndex("storefake")
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Docs) != len(outcomes) {
		t.Fatalf("stale sidecar served: %d docs, want %d", len(again.Docs), len(outcomes))
	}
}

// asOldContainer rewrites a saved snapshot's magic to the first
// container version's, which is what a store written before the binary
// record payloads looks like to this build.
func asOldContainer(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, oldSnapMagic)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOlderContainerIsStale: a SPEXSNP1 file loads as ErrStale, its
// index sidecar is not served, List skips it, and a campaign over it
// falls back to a full run whose status names the older container
// version — then rewrites the file so the next run replays.
func TestOlderContainerIsStale(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sys := &storeSystem{}
	c := basicC("p")
	set := mkSet(c)
	ms := misconfs(c, 6)
	if _, _, err := Campaign(context.Background(), testWriter(store, sys.Name()), sys, set, ms, inject.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	// Keep the file's mtime, as a store written by the older build
	// would: its index sidecar then still matches by identity. The
	// older build's store is opened by a new process, so reopen it.
	fi, err := os.Stat(store.Path(sys.Name()))
	if err != nil {
		t.Fatal(err)
	}
	asOldContainer(t, store.Path(sys.Name()))
	if err := os.Chtimes(store.Path(sys.Name()), fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}
	if store, err = Open(store.dir); err != nil {
		t.Fatal(err)
	}
	if _, err := store.LoadIndex(sys.Name()); !errors.Is(err, ErrStale) {
		t.Fatalf("LoadIndex over a SPEXSNP1 file = %v, want ErrStale", err)
	}

	if _, err := store.Load(sys.Name()); !errors.Is(err, ErrStale) {
		t.Fatalf("Load of a SPEXSNP1 file = %v, want ErrStale", err)
	}
	if names, err := store.List(); err != nil || len(names) != 0 {
		t.Fatalf("List over a SPEXSNP1 store = %v, %v; want it skipped", names, err)
	}
	if _, err := store.Snapshots(); !errors.Is(err, ErrStale) || !strings.Contains(err.Error(), store.Path(sys.Name())) {
		t.Fatalf("Snapshots over a SPEXSNP1 store = %v, want a stale error naming the file", err)
	}
	if _, err := OpenSnapshotIter(store.Path(sys.Name()), sys.Name()); !errors.Is(err, ErrStale) {
		t.Fatalf("OpenSnapshotIter of a SPEXSNP1 file = %v, want ErrStale", err)
	}

	boots := sys.boots.Load()
	_, st, err := Campaign(context.Background(), testWriter(store, sys.Name()), sys, set, ms, inject.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed || !strings.Contains(st.Fallback, "older container version") {
		t.Fatalf("status = %+v, want an older-container fallback", st)
	}
	if got := sys.boots.Load() - boots; got != 6 {
		t.Fatalf("fallback booted %d times, want the full 6", got)
	}
	rep, st, err := Campaign(context.Background(), testWriter(store, sys.Name()), sys, set, ms, inject.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Replayed || rep.Replayed != 6 {
		t.Fatalf("run after the rewrite: status %+v, %d replayed; want all 6", st, rep.Replayed)
	}
}

// sameRecords reports how two decoded snapshots differ, or "".
func sameRecords(a, b *Snapshot) string {
	if a.Schema != b.Schema || a.System != b.System || a.Options != b.Options ||
		a.SetFingerprint != b.SetFingerprint || !a.SavedAt.Equal(b.SavedAt) {
		return fmt.Sprintf("headers differ: %+v vs %+v", a, b)
	}
	sa, _ := json.Marshal(a.Constraints)
	sb, _ := json.Marshal(b.Constraints)
	if !bytes.Equal(sa, sb) {
		return fmt.Sprintf("constraint sets differ:\n%s\n%s", sa, sb)
	}
	if len(a.Outcomes) != len(b.Outcomes) {
		return fmt.Sprintf("%d records vs %d", len(a.Outcomes), len(b.Outcomes))
	}
	for k, oa := range a.Outcomes {
		ob, ok := b.Outcomes[k]
		if !ok {
			return fmt.Sprintf("record %q missing", k)
		}
		ja, _ := json.Marshal(oa)
		jb, _ := json.Marshal(ob)
		if !bytes.Equal(ja, jb) {
			return fmt.Sprintf("record %q differs:\n%s\n%s", k, ja, jb)
		}
		if !a.Stamps[k].Equal(b.Stamps[k]) {
			return fmt.Sprintf("record %q stamp %v vs %v", k, a.Stamps[k], b.Stamps[k])
		}
	}
	return ""
}

// FuzzSnapshotDecode: the container decoder never panics on arbitrary
// bytes, and whatever it accepts re-encodes to the same records. Each
// input is decoded twice: as given, and with its last four bytes
// replaced by the CRC of the rest, so mutations inside the records get
// past the trailer check and reach the round trip.
func FuzzSnapshotDecode(f *testing.F) {
	set := mkSet(basicC("p"), rangeC("q", 1))
	snap := New("storefake", set, inject.DefaultOptions(), fixtureOutcomes(f, 6))
	data, err := encodeBinary(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, cut := range []int{0, len(snapMagic), len(snapMagic) + 1, len(data) / 3, len(data) / 2, len(data) - 5, len(data) - 1} {
		f.Add(data[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := decodeBinarySnapshot(data, "storefake"); err == nil {
			roundTrip(t, data)
		}
		if len(data) < 4 {
			return
		}
		fixed := append([]byte(nil), data...)
		body := len(fixed) - 4
		binary.LittleEndian.PutUint32(fixed[body:], crc32.ChecksumIEEE(fixed[:body]))
		if _, err := decodeBinarySnapshot(fixed, "storefake"); err == nil {
			roundTrip(t, fixed)
		}
	})
}

// roundTrip re-encodes a snapshot that decoded and checks the records
// survive.
func roundTrip(t *testing.T, data []byte) {
	t.Helper()
	got, err := decodeBinarySnapshot(data, "storefake")
	if err != nil {
		t.Fatal(err)
	}
	again, err := encodeBinary(got)
	if err != nil {
		t.Fatalf("a decoded snapshot does not re-encode: %v", err)
	}
	back, err := decodeBinarySnapshot(again, "storefake")
	if err != nil {
		t.Fatalf("a re-encoded snapshot does not decode: %v", err)
	}
	if diff := sameRecords(got, back); diff != "" {
		t.Fatal(diff)
	}
}
