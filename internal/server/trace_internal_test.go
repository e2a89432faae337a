package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spex/internal/shard"
)

// TestFinishedJobsDropTraceRecorder: once a job's trace is journaled
// the job no longer holds its recorder, and GET /v1/jobs/{id}/trace
// serves the same document from the journal as it served from the
// recorder.
func TestFinishedJobsDropTraceRecorder(t *testing.T) {
	s, err := New(Config{StateDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	var ids []string
	for _, system := range []string{"ldapd", "pgdb", "ldapd"} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"systems": [%q], "workers": 2}`, system)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /v1/jobs: %d %s", resp.StatusCode, body)
		}
		var doc Job
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("job document: %v\n%s", err, body)
		}
		ids = append(ids, doc.ID)
	}
	s.mu.Lock()
	ns := s.namespaces[DefaultNamespace]
	s.mu.Unlock()
	deadline := time.Now().Add(2 * time.Minute)
	for _, id := range ids {
		for !terminal(s.lookup(ns, id).snapshot().State) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s did not finish", id)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// Every job has started and finished, so waiting for the job
	// goroutines returns once each has journaled its trace.
	s.jobsWG.Wait()
	for _, id := range ids {
		j := s.lookup(ns, id)
		j.mu.Lock()
		held := j.trace != nil
		j.mu.Unlock()
		if held {
			t.Errorf("finished job %s still holds its trace recorder", id)
		}
		if doc := get("/v1/jobs/" + id + "/trace"); !strings.Contains(doc, `"job": "`+id+`"`) {
			t.Errorf("journaled trace of %s:\n%s", id, doc)
		}
	}

	// Before and after the drop: serve a recorder, journal it, serve
	// the journal.
	id := ids[0]
	j := s.lookup(ns, id)
	start := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	rec := newTraceRecorder(id, start)
	rec.observeProgress(shard.Progress{System: "ldapd", Key: "k1", Elapsed: time.Millisecond}, start.Add(2*time.Millisecond))
	rec.observeProgress(shard.Progress{System: "ldapd", Key: "k2", Failed: true}, start.Add(3*time.Millisecond))
	tdoc := rec.finish(StateDone, start.Add(4*time.Millisecond))
	j.mu.Lock()
	j.trace = rec
	j.mu.Unlock()
	before := get("/v1/jobs/" + id + "/trace")
	beforeText := get("/v1/jobs/" + id + "/trace?format=text")
	s.journalTrace(ns, j, tdoc)
	j.mu.Lock()
	held := j.trace != nil
	j.mu.Unlock()
	if held {
		t.Fatal("journalTrace kept the recorder after a successful write")
	}
	if after := get("/v1/jobs/" + id + "/trace"); after != before {
		t.Errorf("trace changed across the drop:\nbefore %s\nafter  %s", before, after)
	}
	if after := get("/v1/jobs/" + id + "/trace?format=text"); after != beforeText {
		t.Errorf("text trace changed across the drop:\nbefore %s\nafter  %s", beforeText, after)
	}
}
