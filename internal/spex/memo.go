package spex

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"sort"
	"sync"
	"time"

	"spex/internal/apispec"
	"spex/internal/obs"
	"spex/internal/sim"
)

// Inference metrics. The memo counters split InferSystem calls into
// those served from the memo and those that ran inference; the
// histogram times only the runs.
const (
	metricMemoHits     = "spex_infer_memo_hits_total"
	metricMemoMisses   = "spex_infer_memo_misses_total"
	metricInferSeconds = "spex_infer_seconds"
)

var (
	mMemoHits     = obs.Default().Counter(metricMemoHits, "InferSystem calls served by the inference memo (done or in flight)")
	mMemoMisses   = obs.Default().Counter(metricMemoMisses, "InferSystem calls that ran inference")
	mInferSeconds = obs.Default().Histogram(metricInferSeconds, "wall-clock seconds per inference run (memo misses only)", obs.DurationBuckets)
)

// memoKey is the sha256 digest of every input InferSystem hands Infer.
type memoKey [sha256.Size]byte

// flight is one memo entry. res and err are final once done is closed.
type flight struct {
	done chan struct{}
	res  *Result
	err  error
}

// memo holds one entry per inference input digest: a finished
// successful result, or a run in flight. The seven targets' corpora
// are fixed per build, so it holds a handful of entries per process.
var memo = struct {
	mu sync.Mutex
	m  map[memoKey]*flight
}{m: make(map[memoKey]*flight)}

// memoize returns the result memoised under key. The first caller for
// a key runs infer; concurrent callers wait for that run and share its
// outcome. Only a successful run stays in the memo: after an error or
// a panic the entry is gone, so the next call runs infer again, and
// callers already waiting get an error, never a nil result without one.
func memoize(key memoKey, system string, infer func() (*Result, error)) (*Result, error) {
	memo.mu.Lock()
	if f, ok := memo.m[key]; ok {
		memo.mu.Unlock()
		mMemoHits.Inc()
		<-f.done
		return f.res, f.err
	}
	f := &flight{done: make(chan struct{})}
	memo.m[key] = f
	memo.mu.Unlock()
	mMemoMisses.Inc()

	// Stays the waiters' answer if infer panics.
	f.err = fmt.Errorf("spex: %s: inference panicked in a concurrent call", system)
	defer func() {
		if f.res == nil {
			memo.mu.Lock()
			delete(memo.m, key)
			memo.mu.Unlock()
		}
		close(f.done)
	}()
	start := time.Now()
	res, err := infer()
	mInferSeconds.Observe(time.Since(start).Seconds())
	f.res, f.err = res, err
	return res, err
}

// inputDigest keys the memo: the system name, every source file's name
// and content (sorted by name), the annotation text, the manual entries
// (sorted by parameter, with prose and documented kinds) and the JSON
// encoding of each imported API spec (sorted by name; JSON covers every
// exported field). Every field is length- or count-prefixed, so distinct
// inputs never share an encoding. The standard knowledge base and the
// default options are compiled in, so they are constant per build.
func inputDigest(system string, sources map[string]string, annText string, manual map[string]sim.ManualEntry, imported []*apispec.FuncSpec) (memoKey, error) {
	d := digester{h: sha256.New()}
	d.str(system)
	digestMap(&d, sources, d.str)
	d.str(annText)
	digestMap(&d, manual, func(e sim.ManualEntry) {
		d.str(e.Prose)
		d.uint(uint64(len(e.Documented)))
		for _, k := range e.Documented {
			d.uint(uint64(k))
		}
	})
	d.uint(uint64(len(imported)))
	for _, f := range imported {
		b, err := json.Marshal(f)
		if err != nil {
			return memoKey{}, fmt.Errorf("spex: %s: encode imported API %s: %w", system, f.Name, err)
		}
		d.str(string(b))
	}
	var key memoKey
	d.h.Sum(key[:0])
	return key, nil
}

// digester writes prefixed fields into a hash without copying whole
// strings: the source corpora are tens of kilobytes.
type digester struct {
	h   hash.Hash
	buf [512]byte
}

func (d *digester) uint(v uint64) {
	d.h.Write(d.buf[:binary.PutUvarint(d.buf[:], v)])
}

func (d *digester) str(s string) {
	d.uint(uint64(len(s)))
	for len(s) > 0 {
		n := copy(d.buf[:], s)
		d.h.Write(d.buf[:n])
		s = s[n:]
	}
}

// digestMap writes m's size, then each key in sorted order followed by
// value(m[key]).
func digestMap[V any](d *digester, m map[string]V, value func(V)) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d.uint(uint64(len(keys)))
	for _, k := range keys {
		d.str(k)
		value(m[k])
	}
}
