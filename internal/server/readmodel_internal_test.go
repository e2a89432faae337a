package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"spex/internal/campaignstore"
	"spex/internal/inject"
	"spex/internal/report"
)

// readModelDaemon is an in-package daemon over a fresh state directory
// with helpers to run jobs to completion and to read tables.
type readModelDaemon struct {
	t   *testing.T
	dir string
	s   *Server
	ns  *namespace
	url string
}

func newReadModelDaemon(t *testing.T) *readModelDaemon {
	t.Helper()
	dir := t.TempDir()
	s, err := New(Config{StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })
	s.mu.Lock()
	ns := s.namespaces[DefaultNamespace]
	s.mu.Unlock()
	return &readModelDaemon{t: t, dir: dir, s: s, ns: ns, url: ts.URL}
}

// runJob submits spec and waits for the job to finish successfully.
func (d *readModelDaemon) runJob(spec string) {
	d.t.Helper()
	resp, err := http.Post(d.url+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		d.t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		d.t.Fatalf("POST /v1/jobs: %d %s", resp.StatusCode, body)
	}
	var doc Job
	if err := json.Unmarshal(body, &doc); err != nil {
		d.t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		got := d.s.lookup(d.ns, doc.ID).snapshot()
		if terminal(got.State) {
			if got.State != StateDone {
				d.t.Fatalf("job %s ended %s: %s", doc.ID, got.State, got.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("job %s did not finish", doc.ID)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// table fetches one table as text and returns its body and ETag.
func (d *readModelDaemon) table(n int) (string, string) {
	d.t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/tables/%d?format=text", d.url, n))
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		d.t.Fatalf("GET table %d: %d %s", n, resp.StatusCode, body)
	}
	return string(body), resp.Header.Get("ETag")
}

// freshTables renders every table over a new Store on the daemon's
// directory — a reader that shares no cache with the daemon — as the
// daemon serves it (the render plus a newline).
func (d *readModelDaemon) freshTables() map[int]string {
	d.t.Helper()
	store, err := campaignstore.Open(d.dir)
	if err != nil {
		d.t.Fatal(err)
	}
	rs, err := report.ReplayFromIndex(context.Background(), store)
	if err != nil {
		d.t.Fatal(err)
	}
	out := make(map[int]string, report.MaxTable)
	for n := 1; n <= report.MaxTable; n++ {
		text, err := report.RenderTableText(n, rs)
		if err != nil {
			d.t.Fatal(err)
		}
		out[n] = text + "\n"
	}
	return out
}

// readTables reads every table, checks each against a fresh replay of
// the store, and returns how many systems the daemon's replay rebuilt.
func (d *readModelDaemon) readTables() uint64 {
	d.t.Helper()
	before := mReplayRebuilds.Value()
	want := d.freshTables()
	for n := 1; n <= report.MaxTable; n++ {
		if got, _ := d.table(n); got != want[n] {
			d.t.Errorf("table %d differs from a fresh ReplayFromIndex over the same store", n)
		}
	}
	return mReplayRebuilds.Value() - before
}

// resave rewrites one system's snapshot through the daemon's lock,
// after edit has changed its outcomes.
func (d *readModelDaemon) resave(system string, edit func(keys []string, outcomes map[string]inject.Outcome)) {
	d.t.Helper()
	snap, err := d.ns.store.Load(system)
	if err != nil {
		d.t.Fatal(err)
	}
	keys := make([]string, 0, len(snap.Outcomes))
	for k := range snap.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	edit(keys, snap.Outcomes)
	if err := d.ns.lock.Save(snap); err != nil {
		d.t.Fatal(err)
	}
}

// TestTableReplayRebuildCounts: after a write, the next table read
// rebuilds only the systems whose snapshot fingerprint moved — none
// after a replay-only job, exactly one after a job over a system whose
// snapshot had an outcome changed or lost — and every table still
// matches a fresh replay of the store byte for byte.
func TestTableReplayRebuildCounts(t *testing.T) {
	d := newReadModelDaemon(t)
	d.runJob(`{"all": true, "workers": 2}`)
	if got := d.readTables(); got != 7 {
		t.Errorf("first table read rebuilt %d systems, want 7", got)
	}
	if got := d.readTables(); got != 0 {
		t.Errorf("second table read rebuilt %d systems, want 0", got)
	}

	// A replay-only job rewrites proxyd's snapshot (new save time, same
	// fingerprint).
	d.runJob(`{"systems": ["proxyd"]}`)
	if got := d.readTables(); got != 0 {
		t.Errorf("table read after a replay-only job rebuilt %d systems, want 0", got)
	}

	// A changed outcome survives the job's replay: a new fingerprint.
	var changed string
	d.resave("ldapd", func(keys []string, outcomes map[string]inject.Outcome) {
		changed = keys[0]
		o := outcomes[changed]
		o.Pinpointed = !o.Pinpointed
		outcomes[changed] = o
	})
	d.runJob(`{"systems": ["ldapd"]}`)
	if got := d.readTables(); got != 1 {
		t.Errorf("table read after a job over a changed snapshot rebuilt %d systems, want 1", got)
	}

	// Losing that outcome makes the job execute it again, which
	// restores the original outcome: the fingerprint moves once more.
	d.resave("ldapd", func(_ []string, outcomes map[string]inject.Outcome) {
		delete(outcomes, changed)
	})
	d.runJob(`{"systems": ["ldapd"]}`)
	if got := d.readTables(); got != 1 {
		t.Errorf("table read after a job over a snapshot that lost an outcome rebuilt %d systems, want 1", got)
	}
}

// TestTableEtagMatchesBody: the ETag served with a table is the
// combined tag of the very indexes its body was rendered from, also
// while saves keep switching one system between two states. Each
// response must be one of the two (tag, body) pairs, never a mix.
func TestTableEtagMatchesBody(t *testing.T) {
	d := newReadModelDaemon(t)
	d.runJob(`{"all": true, "workers": 2}`)

	orig, err := d.ns.store.Load("proxyd")
	if err != nil {
		t.Fatal(err)
	}
	crashed := *orig
	crashed.Outcomes = make(map[string]inject.Outcome, len(orig.Outcomes))
	turned := false
	for k, o := range orig.Outcomes {
		if !turned && o.Reaction != inject.ReactionCrash && o.Err == "" {
			o.Reaction, turned = inject.ReactionCrash, true
		}
		crashed.Outcomes[k] = o
	}
	states := []*campaignstore.Snapshot{orig, &crashed}

	// Each state's tag and table texts, as a fresh reader sees them.
	type pair struct{ etag, body string }
	var want [2]map[int]pair
	for i, snap := range states {
		if err := d.ns.lock.Save(snap); err != nil {
			t.Fatal(err)
		}
		idxs, err := d.ns.store.LoadIndexAll()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = map[int]pair{}
		for n, body := range d.freshTables() {
			want[i][n] = pair{combinedEtag(idxs), body}
		}
	}
	n := 0
	for m := 1; m <= report.MaxTable; m++ {
		if want[0][m].body != want[1][m].body {
			n = m
			break
		}
	}
	if n == 0 {
		t.Fatal("no table tells the two states apart")
	}
	if body, etag := d.table(n); (pair{etag, body}) != want[1][n] {
		t.Fatalf("quiescent table %d: ETag %s does not match its body's state", n, etag)
	}

	stop := make(chan struct{})
	saved := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				saved <- nil
				return
			default:
			}
			if err := d.ns.lock.Save(states[i%2]); err != nil {
				saved <- err
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		body, etag := d.table(n)
		if got := (pair{etag, body}); got != want[0][n] && got != want[1][n] {
			t.Errorf("read %d: table %d body and ETag %s come from different store states", i, n, etag)
			break
		}
	}
	close(stop)
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
}
