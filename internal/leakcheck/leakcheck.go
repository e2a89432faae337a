// Package leakcheck fails a package's test binary when goroutines
// outlive its tests — the deterministic check behind the "no goroutine
// leaks in a long-lived spexd" invariant. Wire it from TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// settle bounds how long Main waits for goroutines to wind down after
// the tests return (a closed connection's goroutines exit
// asynchronously).
const settle = 10 * time.Second

// Main runs the tests, then polls until the goroutine count is back to
// its pre-run value, and exits. Idle keep-alive connections of
// http.DefaultTransport are closed on every poll: tests reach their
// servers through it, and its pooled connections are reusable, not
// leaked. If the count is not back by the deadline, Main prints the
// goroutine profile and fails the binary.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	transport, _ := http.DefaultTransport.(*http.Transport)
	deadline := time.Now().Add(settle)
	for {
		if transport != nil {
			transport.CloseIdleConnections()
		}
		n := runtime.NumGoroutine()
		if n <= before {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines after the tests, %d before\n", n, before)
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			code = 1
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	os.Exit(code)
}
