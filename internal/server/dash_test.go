package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"spex/internal/dash"
	"spex/internal/server"
)

// busCollector consumes a daemon-wide (or namespace-filtered) bus SSE
// stream until stopped, recording every decoded event.
type busCollector struct {
	mu     sync.Mutex
	events []dash.Event
	done   chan struct{}
	cancel context.CancelFunc
}

// collectBus attaches to url (a /v1/events or /v1/ns/{ns}/events
// endpoint). lastEventID > 0 resumes with the SSE Last-Event-ID header.
func collectBus(t *testing.T, url string, lastEventID uint64) *busCollector {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	c := &busCollector{done: make(chan struct{}), cancel: cancel}
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastEventID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("bus content-type = %q", ct)
	}
	go func() {
		defer close(c.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var e dash.Event
				if json.Unmarshal([]byte(data), &e) == nil {
					c.mu.Lock()
					c.events = append(c.events, e)
					c.mu.Unlock()
				}
			}
		}
	}()
	return c
}

// stop tears the connection down and returns everything collected.
func (c *busCollector) stop() []dash.Event {
	c.cancel()
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]dash.Event(nil), c.events...)
}

// waitFor blocks until a collected event satisfies pred.
func (c *busCollector) waitFor(t *testing.T, what string, pred func(dash.Event) bool, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		for _, e := range c.events {
			if pred(e) {
				c.mu.Unlock()
				return
			}
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("bus stream never delivered %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// jobDone matches the terminal lifecycle event of one (ns, job).
func jobDone(ns, id string) func(dash.Event) bool {
	return func(e dash.Event) bool {
		return e.Namespace == ns && e.Kind == dash.KindJob && e.Job == id && e.State == server.StateDone
	}
}

// TestBusAggregateTwoNamespaces replays a two-job run across two
// namespaces against the aggregate stream: one subscription carries
// both tenants' lifecycles, per-job event order holds, the scheduler's
// reserve/release transitions appear, and progress is folded in.
func TestBusAggregateTwoNamespaces(t *testing.T) {
	t.Parallel()
	_, ts := daemon(t, server.Config{StateDir: t.TempDir()})

	c := collectBus(t, ts.URL+"/v1/events", 0)
	doc1 := postJob(t, ts.URL, `{"systems": ["proxyd"], "workers": 4}`)
	doc2 := postJobAt(t, ts.URL+"/v1/ns/tenant2/jobs", `{"systems": ["ldapd"], "workers": 4}`)

	// The scheduler's release publishes after the job's terminal event,
	// so it is the true end of each job's bus footprint.
	released := func(ns, id string) func(dash.Event) bool {
		return func(e dash.Event) bool {
			return e.Namespace == ns && e.Job == id && e.Kind == dash.KindSched && e.Sched.Op == "release"
		}
	}
	c.waitFor(t, "job 1 released", released("default", doc1.ID), time.Minute)
	c.waitFor(t, "job 2 released", released("tenant2", doc2.ID), time.Minute)
	events := c.stop()

	// Per-job assertions: lifecycle order and the scheduler envelope.
	for _, want := range []struct{ ns, id string }{
		{"default", doc1.ID}, {"tenant2", doc2.ID},
	} {
		var states []string
		var schedOps []string
		progress := 0
		var lastSeq uint64
		for _, e := range events {
			if e.Namespace != want.ns || e.Job != want.id {
				continue
			}
			if e.Seq <= lastSeq {
				t.Errorf("%s/%s: bus seq went backwards (%d after %d)", want.ns, want.id, e.Seq, lastSeq)
			}
			lastSeq = e.Seq
			if e.V != dash.SchemaVersion {
				t.Errorf("%s/%s: event schema version %d", want.ns, want.id, e.V)
			}
			switch e.Kind {
			case dash.KindJob:
				states = append(states, e.State)
			case dash.KindSched:
				schedOps = append(schedOps, e.Sched.Op)
			case dash.KindProgress:
				progress++
				if e.Progress == nil || e.Progress.System == "" {
					t.Errorf("%s/%s: progress event without a sample", want.ns, want.id)
				}
			}
		}
		if got := strings.Join(states, " "); got != "queued running done" {
			t.Errorf("%s/%s lifecycle = %q, want \"queued running done\"", want.ns, want.id, got)
		}
		if got := strings.Join(schedOps, " "); got != "queue reserve release" {
			t.Errorf("%s/%s sched ops = %q, want \"queue reserve release\"", want.ns, want.id, got)
		}
		if progress == 0 {
			t.Errorf("%s/%s: no progress events folded onto the bus", want.ns, want.id)
		}
	}
}

// TestBusNamespaceIsolation: /v1/ns/{ns}/events carries exactly that
// tenant's stream even while another namespace is busy.
func TestBusNamespaceIsolation(t *testing.T) {
	t.Parallel()
	_, ts := daemon(t, server.Config{StateDir: t.TempDir()})

	// Create tenant2 first so its filtered stream can attach (reads on
	// an unknown namespace 404). The stream carries live events only, so
	// the tenant2 job it waits for is posted after it attaches: one
	// posted before could finish first, and its terminal event would
	// never reach the stream.
	postJobAt(t, ts.URL+"/v1/ns/tenant2/jobs", `{"systems": ["ldapd"], "workers": 4}`)
	c := collectBus(t, ts.URL+"/v1/ns/tenant2/events", 0)
	doc2 := postJobAt(t, ts.URL+"/v1/ns/tenant2/jobs", `{"systems": ["ldapd"], "workers": 4}`)
	doc1 := postJob(t, ts.URL, `{"systems": ["proxyd"], "workers": 4}`)

	waitTerminal(t, ts.URL, doc1.ID, time.Minute)
	c.waitFor(t, "tenant2 job done", jobDone("tenant2", doc2.ID), time.Minute)
	for _, e := range c.stop() {
		if e.Namespace != "tenant2" {
			t.Errorf("namespace-filtered stream leaked an event from %q: %+v", e.Namespace, e)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/ns/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("events on an unknown namespace: %d, want 404", resp.StatusCode)
	}
}

// TestBusResumeLastEventID: a subscriber that reconnects with the last
// id it saw replays only what it missed, from the bus's ring.
func TestBusResumeLastEventID(t *testing.T) {
	t.Parallel()
	_, ts := daemon(t, server.Config{StateDir: t.TempDir()})

	c1 := collectBus(t, ts.URL+"/v1/events", 0)
	doc1 := postJob(t, ts.URL, `{"systems": ["proxyd"], "workers": 4}`)
	c1.waitFor(t, "first job done", jobDone("default", doc1.ID), time.Minute)
	first := c1.stop()
	lastSeq := first[len(first)-1].Seq

	// The "dropped connection": everything after lastSeq happens while
	// no subscriber is attached.
	doc2 := postJob(t, ts.URL, `{"systems": ["ldapd"], "workers": 4}`)
	waitTerminal(t, ts.URL, doc2.ID, time.Minute)

	c2 := collectBus(t, ts.URL+"/v1/events", lastSeq)
	c2.waitFor(t, "second job done after resume", jobDone("default", doc2.ID), time.Minute)
	for _, e := range c2.stop() {
		if e.Seq <= lastSeq {
			t.Errorf("resume replayed already-seen seq %d (resumed after %d)", e.Seq, lastSeq)
		}
		if e.Job == doc1.ID && e.Kind == dash.KindJob {
			t.Errorf("resume replayed the first job's lifecycle: %+v", e)
		}
	}
}

// TestJobEventsTerminalResume covers the per-job stream hardening: a
// subscription to an already-terminal job delivers the final state
// event and closes cleanly, frames carry ids, and Last-Event-ID resume
// skips the already-seen backlog.
func TestJobEventsTerminalResume(t *testing.T) {
	t.Parallel()
	_, ts := daemon(t, server.Config{StateDir: t.TempDir()})
	doc := postJob(t, ts.URL, `{"systems": ["proxyd"], "workers": 4}`)
	waitTerminal(t, ts.URL, doc.ID, time.Minute)

	// Already terminal: the stream replays the lifecycle, ends with the
	// final state, and closes without a client-side timeout.
	c := collectSSE(t, ts.URL, doc.ID)
	events := c.wait(t)
	if len(events) == 0 {
		t.Fatal("terminal job stream delivered nothing")
	}
	last := events[len(events)-1]
	if last.Kind != "state" || last.State != server.StateDone {
		t.Fatalf("terminal stream ended with %+v, want the done state event", last)
	}
	for _, e := range events {
		if e.ID == 0 {
			t.Fatalf("job event without an id: %+v", e)
		}
	}

	// Resuming after the final event replays nothing and still closes.
	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+doc.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.FormatUint(last.ID, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "data: ") {
		t.Errorf("resume past the final event replayed data:\n%s", body)
	}
}

// TestUIMountedOnDaemon: the embedded dashboard serves from the
// daemon's own mux with the ETag/304 read discipline.
func TestUIMountedOnDaemon(t *testing.T) {
	t.Parallel()
	_, ts := daemon(t, server.Config{StateDir: t.TempDir()})

	resp, err := http.Get(ts.URL + "/ui/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /ui/: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "spex dashboard") {
		t.Error("dashboard page missing its title")
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on /ui/")
	}
	req, err := http.NewRequest("GET", ts.URL+"/ui/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("/ui/ revalidation: %d, want 304", resp2.StatusCode)
	}
}
