package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"spex/internal/obs"
	"spex/internal/server"
)

// TestSSEKeepalive: an idle event stream carries ": keepalive" comment
// frames at the configured interval. GET /v1/events stays open with no
// job running, so the test reads until the first keepalive frame and
// hangs up; any event frame before it must still be well-formed JSON.
func TestSSEKeepalive(t *testing.T) {
	dir := t.TempDir()
	_, ts := daemon(t, server.Config{StateDir: dir, Workers: 1, KeepaliveInterval: 10 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == ": keepalive" {
			return
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && !json.Valid([]byte(data)) {
			t.Fatalf("malformed event frame before the first keepalive: %s", line)
		}
	}
	t.Fatalf("stream ended without a keepalive frame: %v", sc.Err())
}

// TestJobTrace: a finished job serves a span tree — job → system →
// misconf — as JSON and as indented text, and the tree is persisted
// next to the job journal.
func TestJobTrace(t *testing.T) {
	dir := t.TempDir()
	_, ts := daemon(t, server.Config{StateDir: dir, Workers: 2})

	doc := postJob(t, ts.URL, `{"systems": ["ldapd"], "workers": 2}`)
	final := waitTerminal(t, ts.URL, doc.ID, 2*time.Minute)
	if final.State != server.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d", resp.StatusCode)
	}
	var tdoc obs.TraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&tdoc); err != nil {
		t.Fatal(err)
	}
	if tdoc.Job != doc.ID {
		t.Errorf("trace job = %q, want %q", tdoc.Job, doc.ID)
	}
	var jobSpan, sysSpan *obs.SpanDoc
	misconfs := 0
	for i := range tdoc.Spans {
		s := &tdoc.Spans[i]
		switch s.Kind {
		case obs.SpanJob:
			jobSpan = s
		case obs.SpanSystem:
			sysSpan = s
		case obs.SpanMisconf:
			misconfs++
		}
	}
	if jobSpan == nil || jobSpan.Status != server.StateDone {
		t.Fatalf("job span = %+v, want status done", jobSpan)
	}
	if sysSpan == nil || sysSpan.Name != "ldapd" || sysSpan.Parent != jobSpan.ID {
		t.Fatalf("system span = %+v, want ldapd under %s", sysSpan, jobSpan.ID)
	}
	if misconfs == 0 {
		t.Error("trace has no misconf spans")
	}

	text, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/trace?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer text.Body.Close()
	body, _ := io.ReadAll(text.Body)
	if !strings.Contains(string(body), "job "+doc.ID) ||
		!strings.Contains(string(body), "  system ldapd") {
		t.Errorf("text trace missing tree lines:\n%s", body)
	}

	if _, err := os.Stat(filepath.Join(dir, "jobs", doc.ID+".trace.json")); err != nil {
		t.Errorf("trace not persisted: %v", err)
	}
}

// TestJobTraceAccountsForEveryOutcome: the recorder sees every
// completed outcome, so each system span's misconf children plus its
// `dropped` attribute (the spans elided past the per-system cap) add
// up to the system's outcome count.
func TestJobTraceAccountsForEveryOutcome(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	_, ts := daemon(t, server.Config{StateDir: dir, Workers: 2})

	doc := postJob(t, ts.URL, `{"all": true, "workers": 2}`)
	final := waitTerminal(t, ts.URL, doc.ID, 2*time.Minute)
	if final.State != server.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tdoc obs.TraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&tdoc); err != nil {
		t.Fatal(err)
	}
	children := map[string]int{}
	for _, s := range tdoc.Spans {
		if s.Kind == obs.SpanMisconf {
			children[s.Parent]++
		}
	}
	systems := map[string]obs.SpanDoc{}
	for _, s := range tdoc.Spans {
		if s.Kind == obs.SpanSystem {
			systems[s.Name] = s
		}
	}
	if len(systems) != len(final.Systems) {
		t.Fatalf("trace has %d system spans, job summarizes %d systems", len(systems), len(final.Systems))
	}
	for _, sum := range final.Systems {
		span, ok := systems[sum.System]
		if !ok {
			t.Errorf("no system span for %s", sum.System)
			continue
		}
		dropped := 0
		if v, ok := span.Attrs["dropped"]; ok {
			if dropped, err = strconv.Atoi(v); err != nil {
				t.Fatalf("%s: dropped attr %q: %v", sum.System, v, err)
			}
		}
		if got := children[span.ID] + dropped; got != sum.Outcomes {
			t.Errorf("%s: %d misconf spans + %d dropped = %d, want %d outcomes",
				sum.System, children[span.ID], dropped, got, sum.Outcomes)
		}
	}
}

// TestMetricsEndpoint: GET /metrics serves Prometheus text covering
// every instrumented layer the daemon links.
func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	_, ts := daemon(t, server.Config{StateDir: dir, Workers: 2})

	doc := postJob(t, ts.URL, `{"systems": ["ldapd"], "workers": 2}`)
	waitTerminal(t, ts.URL, doc.ID, 2*time.Minute)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content-type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	families := make(map[string]bool)
	for _, line := range strings.Split(string(body), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families[strings.Fields(name)[0]] = true
		}
	}
	// One family per instrumented layer proves the whole stack is
	// linked into the exposition.
	for _, want := range []string{
		"spex_engine_tasks_total",
		"spex_store_saves_total",
		"spex_hub_events_total",
		"spex_sim_boots_total",
		"spex_campaign_outcomes_fresh_total",
		"spex_http_requests_total",
		"spex_jobs_total",
		"spex_job_seconds",
		"spex_infer_memo_hits_total",
		"spex_infer_memo_misses_total",
		"spex_infer_seconds",
		"spex_server_index_cache_hits_total",
		"spex_server_index_cache_rebuilds_total",
		"spex_server_tables_cache_hits_total",
		"spex_server_tables_cache_rebuilds_total",
		"spex_server_replay_system_rebuilds_total",
	} {
		if !families[want] {
			t.Errorf("/metrics missing family %s", want)
		}
	}
	if len(families) < 20 {
		t.Errorf("/metrics exposes %d families, want >= 20", len(families))
	}
}
