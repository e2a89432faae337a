package campaignstore_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"testing"

	"spex/internal/campaignstore"
	"spex/internal/constraint"
	"spex/internal/inject"
	"spex/internal/report"
)

// roundTrip streams outcomes through the container encoder and decoder
// and returns what came back, keyed like the input.
func roundTrip(t *testing.T, system string, set *constraint.Set, outcomes map[string]inject.Outcome) map[string]inject.Outcome {
	t.Helper()
	hdr := campaignstore.New(system, set, inject.DefaultOptions(), nil)
	var buf bytes.Buffer
	enc, err := campaignstore.NewSnapshotEncoder(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := enc.Add(k, hdr.SavedAt, outcomes[k]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := enc.Finish(); err != nil {
		t.Fatal(err)
	}
	dec, err := campaignstore.NewSnapshotDecoder(bytes.NewReader(buf.Bytes()), int64(buf.Len()), system)
	if err != nil {
		t.Fatal(err)
	}
	wantSet, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	if gotSet, err := json.Marshal(dec.Header().Constraints); err != nil || !bytes.Equal(gotSet, wantSet) {
		t.Fatalf("constraint set changed in the round trip (%v):\nwant %s\ngot  %s", err, wantSet, gotSet)
	}
	got := make(map[string]inject.Outcome, len(outcomes))
	for {
		k, stamp, out, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !stamp.Equal(hdr.SavedAt) {
			t.Fatalf("record %q: stamp %v, want %v", k, stamp, hdr.SavedAt)
		}
		got[k] = out
	}
	return got
}

// sameJSON fails the test unless every outcome marshals to the same
// JSON after the round trip — the bytes the snapshot fingerprint hashes.
func sameJSON(t *testing.T, want, got map[string]inject.Outcome) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d outcomes came back, want %d", len(got), len(want))
	}
	for k, o := range want {
		wj, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		gj, err := json.Marshal(got[k])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gj, wj) {
			t.Fatalf("outcome %q changed in the round trip:\nwant %s\ngot  %s", k, wj, gj)
		}
	}
}

// fillMode says what fill does with slices, maps and pointers.
type fillMode int

const (
	fillFull  fillMode = iota // two filled elements, a filled pointee
	fillEmpty                 // empty but non-nil slices and maps
	fillNil                   // nil slices, maps and pointers
)

// filler sets every field reachable from a value, by reflection, so a
// field added to inject.Outcome (or anything it contains) is covered
// without touching this test. A kind it cannot fill fails the test.
type filler struct {
	t    *testing.T
	mode fillMode
	n    int
}

func (f *filler) fill(v reflect.Value, path string) {
	f.n++
	switch v.Kind() {
	case reflect.String:
		// Separators, a NUL and a multi-byte rune, so no encoding can
		// lean on delimiters.
		v.SetString(fmt.Sprintf("s%d|:\x00é", f.n))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := int64(f.n) * 1_000_003
		if f.n%2 == 0 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(f.n) + 0.1)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			field := v.Type().Field(i)
			if !field.IsExported() {
				f.t.Fatalf("%s.%s is unexported; the filler cannot set it", path, field.Name)
			}
			f.fill(v.Field(i), path+"."+field.Name)
		}
	case reflect.Slice:
		switch f.mode {
		case fillNil:
		case fillEmpty:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			for i := 0; i < 2; i++ {
				f.fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		}
	case reflect.Map:
		switch f.mode {
		case fillNil:
		case fillEmpty:
			v.Set(reflect.MakeMap(v.Type()))
		default:
			v.Set(reflect.MakeMap(v.Type()))
			for i := 0; i < 2; i++ {
				k := reflect.New(v.Type().Key()).Elem()
				f.fill(k, path+"[key]")
				e := reflect.New(v.Type().Elem()).Elem()
				f.fill(e, path+"[elem]")
				v.SetMapIndex(k, e)
			}
		}
	case reflect.Pointer:
		if f.mode == fillNil {
			return
		}
		p := reflect.New(v.Type().Elem())
		f.fill(p.Elem(), path)
		v.Set(p)
	default:
		f.t.Fatalf("%s has kind %s, which the filler (and likely the codec) does not handle", path, v.Kind())
	}
	if f.mode == fillFull && v.IsZero() {
		f.t.Fatalf("%s is still zero after filling", path)
	}
}

// TestCodecCoversEveryOutcomeField: an outcome with every field set —
// recursively through Misconf, Violates, its intervals and enum
// values, the env actions, the Values map and both source locations —
// comes back with the same JSON, and so does a constraint set holding
// its Violates. So do outcomes whose slices and maps are all empty and
// all nil, which JSON tells apart.
func TestCodecCoversEveryOutcomeField(t *testing.T) {
	for _, mode := range []fillMode{fillFull, fillEmpty, fillNil} {
		f := &filler{t: t, mode: mode}
		var o inject.Outcome
		f.fill(reflect.ValueOf(&o).Elem(), "Outcome")
		// The constraint frame uses Violates' encoding; carry the filled
		// constraint through it too.
		set := constraint.NewSet("fill")
		if o.Misconf.Violates != nil {
			set.Add(o.Misconf.Violates)
		}
		outcomes := map[string]inject.Outcome{inject.CacheKey(o.Misconf): o}
		sameJSON(t, outcomes, roundTrip(t, "fill", set, outcomes))
	}
}

// TestCodecRoundTripsRealCampaign: every outcome of the seven targets'
// campaigns comes back from the codec with the same JSON.
func TestCodecRoundTripsRealCampaign(t *testing.T) {
	results, err := report.AnalyzeAllContext(context.Background(), report.AnalyzeOptions{Workers: 2, CampaignWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, res := range results {
		outcomes := make(map[string]inject.Outcome, len(res.Campaign.Outcomes))
		for _, o := range res.Campaign.Outcomes {
			outcomes[inject.CacheKey(o.Misconf)] = o
		}
		sameJSON(t, outcomes, roundTrip(t, res.Sys.Name(), res.Inference.Set, outcomes))
		total += len(outcomes)
	}
	if total == 0 {
		t.Fatal("the campaigns produced no outcomes")
	}
	t.Logf("%d outcomes over %d systems round-tripped", total, len(results))
}
