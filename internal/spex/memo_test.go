package spex

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spex/internal/apispec"
	"spex/internal/constraint"
	"spex/internal/sim"
)

// fakeSystem is a sim.System that carries only the inputs inference
// reads; any other method panics on the nil embedded interface.
type fakeSystem struct {
	sim.System
	name    string
	sources map[string]string
	annText string
	manual  map[string]sim.ManualEntry
	// onSources, if set, runs on every Sources call.
	onSources func()
}

func (s *fakeSystem) Name() string { return s.name }

func (s *fakeSystem) Sources() map[string]string {
	if s.onSources != nil {
		s.onSources()
	}
	return s.sources
}

func (s *fakeSystem) Annotations() string                { return s.annText }
func (s *fakeSystem) Manual() map[string]sim.ManualEntry { return s.manual }

// importingSystem adds the APIImporter hook.
type importingSystem struct {
	*fakeSystem
	specs []apispec.FuncSpec
}

func (s *importingSystem) ImportAPIs(db *apispec.DB) {
	for i := range s.specs {
		db.Register(&s.specs[i])
	}
}

var fakeSeq atomic.Int64

// uniqueName gives every fake system its own memo key, so a test sees
// a fresh entry however often the binary runs it (-count, -shuffle).
func uniqueName() string { return fmt.Sprintf("mini-%d", fakeSeq.Add(1)) }

func miniSystem() *fakeSystem {
	return &fakeSystem{
		name:    uniqueName(),
		sources: map[string]string{"mini.go": miniCorpus},
		annText: miniAnnot,
		manual: map[string]sim.ManualEntry{
			"udp_port": {Prose: "UDP port of the ICP listener", Documented: []constraint.Kind{constraint.KindSemanticType}},
		},
	}
}

// kernel runs the uncached Infer on sys's inputs, as InferSystem would.
func kernel(t *testing.T, sys sim.System) *Result {
	t.Helper()
	db := apispec.New()
	if imp, ok := sys.(APIImporter); ok {
		imp.ImportAPIs(db)
	}
	res, err := Infer(sys.Name(), sys.Sources(), sys.Annotations(), sys.Manual(), db, DefaultOptions())
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	return res
}

// canonical encodes a result for comparison across inference runs.
// Observation order depends on map iteration inside dataflow, so the
// observations are compared as a sorted multiset.
func canonical(t *testing.T, r *Result) []byte {
	t.Helper()
	obs := make([]string, len(r.Obs))
	for i, o := range r.Obs {
		b, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		obs[i] = string(b)
	}
	sort.Strings(obs)
	c := *r
	c.Obs = nil
	b, err := json.Marshal(struct {
		Result *Result
		Obs    []string
	}{&c, obs})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustInferSystem(t *testing.T, sys sim.System) *Result {
	t.Helper()
	res, err := InferSystem(sys)
	if err != nil {
		t.Fatalf("InferSystem(%s): %v", sys.Name(), err)
	}
	return res
}

// TestInferSystemKeyCoversEveryInput: two systems that differ in one
// input only get different results, each equal to the kernel's result
// for its own inputs.
func TestInferSystemKeyCoversEveryInput(t *testing.T) {
	same := func(s *fakeSystem) sim.System { return s }
	importing := func(sem constraint.SemanticType) func(*fakeSystem) sim.System {
		return func(s *fakeSystem) sim.System {
			return &importingSystem{s, []apispec.FuncSpec{{Name: "wait", Args: []apispec.ArgSpec{{Index: 0, Semantic: sem}}}}}
		}
	}
	cases := []struct {
		input string
		a, b  func(*fakeSystem) sim.System
	}{
		{"source file", same, func(s *fakeSystem) sim.System {
			s.sources = map[string]string{"mini.go": strings.Replace(miniCorpus, "conf.indexIntLen > 255", "conf.indexIntLen > 127", 1)}
			return s
		}},
		{"annotations", same, func(s *fakeSystem) sim.System {
			s.annText = strings.Join(strings.Fields(miniAnnot), " ")
			return s
		}},
		{"manual entry", same, func(s *fakeSystem) sim.System {
			s.manual = map[string]sim.ManualEntry{
				"udp_port": {Prose: "UDP port of the ICP listener", Documented: []constraint.Kind{constraint.KindRange}},
			}
			return s
		}},
		// Same number of imported specs, different content.
		{"imported API", importing(constraint.SemPort), importing(constraint.SemCount)},
	}
	for _, tc := range cases {
		t.Run(tc.input, func(t *testing.T) {
			// Same name too: the systems differ in tc.input alone.
			name := uniqueName()
			named := func() *fakeSystem {
				s := miniSystem()
				s.name = name
				return s
			}
			a, b := tc.a(named()), tc.b(named())
			ra, rb := mustInferSystem(t, a), mustInferSystem(t, b)
			ca, cb := canonical(t, ra), canonical(t, rb)
			if bytes.Equal(ca, cb) {
				t.Fatalf("systems differing in their %s got the same result", tc.input)
			}
			if !bytes.Equal(ca, canonical(t, kernel(t, a))) {
				t.Errorf("first system's memoised result differs from Infer's")
			}
			if !bytes.Equal(cb, canonical(t, kernel(t, b))) {
				t.Errorf("second system's memoised result differs from Infer's")
			}
			if again := mustInferSystem(t, b); again != rb {
				t.Errorf("second call returned a different result, want the memoised one")
			}
		})
	}
}

// TestInferSystemSingleFlight: concurrent callers for one system share
// one inference run and one result.
func TestInferSystemSingleFlight(t *testing.T) {
	const n = 8
	var arrived sync.WaitGroup
	arrived.Add(n)
	sys := miniSystem()
	var once sync.Once
	barrier := make(chan struct{})
	sys.onSources = func() {
		// Hold every caller until all n have arrived, so they reach the
		// memo together.
		arrived.Done()
		once.Do(func() {
			go func() { arrived.Wait(); close(barrier) }()
		})
		<-barrier
	}
	misses, hits, runs := mMemoMisses.Value(), mMemoHits.Value(), mInferSeconds.Count()
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = InferSystem(sys)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Errorf("call %d returned a different pointer", i)
		}
	}
	if d := mMemoMisses.Value() - misses; d != 1 {
		t.Errorf("memo misses rose by %d, want 1", d)
	}
	if d := mMemoHits.Value() - hits; d != n-1 {
		t.Errorf("memo hits rose by %d, want %d", d, n-1)
	}
	if d := mInferSeconds.Count() - runs; d != 1 {
		t.Errorf("inference ran %d times, want 1", d)
	}
}

// TestInferSystemErrorNotMemoised: a failed inference leaves no entry.
func TestInferSystemErrorNotMemoised(t *testing.T) {
	sys := miniSystem()
	sys.sources = map[string]string{"mini.go": "package mini\nfunc {"}
	misses := mMemoMisses.Value()
	for i := 0; i < 2; i++ {
		if res, err := InferSystem(sys); err == nil || res != nil {
			t.Fatalf("call %d = %v, %v; want an error", i, res, err)
		}
	}
	if d := mMemoMisses.Value() - misses; d != 2 {
		t.Errorf("memo misses rose by %d, want 2 (the error must not be memoised)", d)
	}
}

// TestInferSystemPanicNotMemoised: a system whose Sources panics leaves
// no entry; the next call runs inference.
func TestInferSystemPanicNotMemoised(t *testing.T) {
	sys := miniSystem()
	var calls atomic.Int64
	sys.onSources = func() {
		if calls.Add(1) == 1 {
			panic("sources unavailable")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("first InferSystem did not panic")
			}
		}()
		_, _ = InferSystem(sys)
	}()
	misses := mMemoMisses.Value()
	res := mustInferSystem(t, sys)
	if res == nil || res.Set.Len() == 0 {
		t.Fatalf("second call returned %+v", res)
	}
	if d := mMemoMisses.Value() - misses; d != 1 {
		t.Errorf("memo misses rose by %d, want 1", d)
	}
}

// TestMemoizeFailedFlight: callers waiting on a run that panics or
// fails get an error, never a nil result without one, and the key is
// free for the next run.
func TestMemoizeFailedFlight(t *testing.T) {
	errFail := errors.New("inference failed")
	for _, mode := range []string{"panic", "error"} {
		t.Run(mode, func(t *testing.T) {
			var key memoKey
			copy(key[:], uniqueName())
			const waiters = 4
			hits := mMemoHits.Value()
			started := make(chan struct{})
			filled := make(chan any, 1)
			go func() {
				defer func() { filled <- recover() }()
				_, _ = memoize(key, "failing", func() (*Result, error) {
					close(started)
					// Fail only once every waiter is parked on this run.
					deadline := time.Now().Add(10 * time.Second)
					for mMemoHits.Value()-hits < waiters && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
					if mode == "panic" {
						panic("inference bug")
					}
					return nil, errFail
				})
			}()
			<-started
			var wg sync.WaitGroup
			for i := 0; i < waiters; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := memoize(key, "failing", func() (*Result, error) {
						t.Error("a waiter ran inference")
						return nil, errFail
					})
					if res != nil || err == nil {
						t.Errorf("waiter got %v, %v; want an error", res, err)
					}
					if mode == "error" && !errors.Is(err, errFail) {
						t.Errorf("waiter got %v, want the run's error", err)
					}
				}()
			}
			wg.Wait()
			if p := <-filled; (p != nil) != (mode == "panic") {
				t.Fatalf("filler recovered %v", p)
			}
			want := &Result{System: "failing"}
			got, err := memoize(key, "failing", func() (*Result, error) { return want, nil })
			if err != nil || got != want {
				t.Fatalf("next call = %v, %v; want a fresh run", got, err)
			}
			got, err = memoize(key, "failing", func() (*Result, error) {
				t.Error("the successful run was not memoised")
				return nil, errFail
			})
			if err != nil || got != want {
				t.Errorf("memoised call = %v, %v", got, err)
			}
		})
	}
}
