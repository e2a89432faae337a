package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// opCounter tallies attempted and failed operations across goroutines.
// A failure is reported on standard error as it happens.
type opCounter struct {
	mu                sync.Mutex
	attempted, failed int64
}

func (c *opCounter) ok() {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
}

func (c *opCounter) fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spexbench: failed: "+format+"\n", args...)
	c.mu.Lock()
	c.attempted++
	c.failed++
	c.mu.Unlock()
}

// check records one operation: failed when err is non-nil.
func (c *opCounter) check(what string, err error) bool {
	if err != nil {
		c.fail("%s: %v", what, err)
		return false
	}
	c.ok()
	return true
}

func (c *opCounter) counts() (attempted, failed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

// samples collects durations in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile by linear interpolation between order
// statistics (0 for no samples).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// heapAlloc returns the cumulative bytes allocated on the heap.
func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func mb(bytes uint64) float64 { return float64(bytes) / 1e6 }

// tracer records the duration of each call the traced loop makes into
// a layer, by name. A nil tracer records nothing, so the untraced loop
// pays only a nil check.
type tracer struct {
	mu    sync.Mutex
	calls map[string]samples
}

func (t *tracer) record(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.calls == nil {
		t.calls = map[string]samples{}
	}
	s := t.calls[name]
	s.add(d)
	t.calls[name] = s
	t.mu.Unlock()
}

// durations returns the recorded durations of calls with this name.
func (t *tracer) durations(name string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append(samples(nil), t.calls[name]...)
}

// timed runs fn and returns its wall time.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}
