package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"spex/internal/constraint"
	"spex/internal/inject"
	"spex/internal/server"
	"spex/internal/targets"
)

// daemon is spexd in process: server.New plus its Handler on a loopback
// listener.
type daemon struct {
	srv       *server.Server
	hs        *http.Server
	base      string
	served    chan error
	transport *http.Transport
	client    *http.Client
}

func startDaemon(dir string) (*daemon, error) {
	srv, err := server.New(server.Config{StateDir: dir, Workers: procs})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Close())
	}
	// Two connections at most: the benchmark's two closed-loop clients.
	transport := &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs}
	d := &daemon{
		srv:       srv,
		hs:        &http.Server{Handler: srv.Handler()},
		base:      "http://" + ln.Addr().String(),
		served:    make(chan error, 1),
		transport: transport,
		client:    &http.Client{Transport: transport},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop closes the daemon the way spexd does on SIGTERM: campaigns and
// streams first, then the listener and connections, then every lock.
func (d *daemon) stop(ctx context.Context) error {
	closeErr := d.srv.Close()
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	shutErr := d.hs.Shutdown(sctx)
	if shutErr != nil {
		shutErr = errors.Join(shutErr, d.hs.Close())
	}
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		shutErr = errors.Join(shutErr, err)
	}
	d.transport.CloseIdleConnections()
	return errors.Join(closeErr, shutErr)
}

// get issues one GET and returns status, body and ETag.
func (d *daemon) get(ctx context.Context, path, ifNoneMatch string) (int, []byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return 0, nil, "", err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	etag := ""
	if v := resp.Header.Values("ETag"); len(v) > 0 {
		etag = v[0]
	}
	return resp.StatusCode, body, etag, err
}

// jobDoc is the part of the daemon's job document the benchmark reads.
type jobDoc struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Error     string     `json:"error"`
	CreatedAt time.Time  `json:"created_at"`
	StartedAt *time.Time `json:"started_at"`
	DoneAt    *time.Time `json:"done_at"`
	Systems   []struct {
		Replayed int `json:"replayed"`
		Executed int `json:"executed"`
	} `json:"systems"`
}

// runJob submits a job, follows its event stream to a terminal state,
// and returns the final document and the client-side submission-to-
// terminal time.
func (d *daemon) runJob(ctx context.Context, spec string) (*jobDoc, time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/jobs", strings.NewReader(spec))
	if err != nil {
		return nil, 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	var doc jobDoc
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, 0, fmt.Errorf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	state, err := d.awaitTerminal(ctx, doc.ID)
	took := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if state != "done" {
		return nil, 0, fmt.Errorf("job %s ended %s", doc.ID, state)
	}
	status, body, _, err := d.get(ctx, "/v1/jobs/"+doc.ID, "")
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("GET job %s: status %d", doc.ID, status)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, 0, err
	}
	if doc.State != "done" {
		return nil, 0, fmt.Errorf("job %s is %s after its terminal event", doc.ID, doc.State)
	}
	return &doc, took, nil
}

// awaitTerminal reads the job's SSE stream until it delivers a terminal
// state, then drains the stream (the daemon closes it) so the
// connection is reused.
func (d *daemon) awaitTerminal(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("job events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	state := ""
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e struct {
			Kind  string `json:"kind"`
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			return "", err
		}
		if e.Kind == "state" {
			state = e.State
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	switch state {
	case "done", "failed", "cancelled":
		return state, nil
	}
	return "", fmt.Errorf("job %s: event stream ended in state %q", id, state)
}

// checkTables fetches every table as text and compares it with the
// reference; each fetch is one read. It reports whether all matched.
func (c *serveClient) checkTables(ctx context.Context) bool {
	ok := true
	for _, n := range tableNumbers {
		ok = c.read(ctx, "table", fmt.Sprintf("/v1/tables/%d?format=text", n), false, tableFile(n)) && ok
	}
	return ok
}

// ---- request mix ----

// No record of real traffic to the daemon exists, so the mix is chosen,
// not measured. Its shape follows the repository's own clients where
// they have one: the dashboard's query form (param, kind, reaction and
// min-systems filters, an "all" box) and its outcomes drill-down
// (limit=50), and CI's table and min-systems reads. The weights are the
// benchmark's choice: the five read kinds get equal shares, about half
// of all reads are conditional and about 2% of requests are writes.

// roundReads is one round's read mix per connection: 8 of each kind.
// With the write and the eleven table checks that follow it, a round is
// 52 requests, one of them (1.9%) a write.
var roundReads = []struct {
	kind  string
	count int
}{{"query", 8}, {"table_text", 8}, {"table_json", 8}, {"outcomes", 8}, {"systems", 8}}

// conditionalPerRound of the round's mixed reads carry If-None-Match;
// with the unconditional table checks, 26 of 51 reads.
const conditionalPerRound = 26

// mixInputs are the values requests draw from.
type mixInputs struct {
	systems, params, kinds, reactions []string
}

func newMixInputs(d *daemon) (*mixInputs, error) {
	in := &mixInputs{}
	for _, sys := range targets.All() {
		in.systems = append(in.systems, sys.Name())
	}
	for k := constraint.KindBasicType; k <= constraint.KindValueRel; k++ {
		in.kinds = append(in.kinds, k.String())
	}
	for r := inject.ReactionCrash; r <= inject.ReactionTolerated; r++ {
		in.reactions = append(in.reactions, r.String())
	}
	idxs, err := d.srv.Store().LoadIndexAll()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, idx := range idxs {
		for p := range idx.ByParam {
			if !seen[p] {
				seen[p] = true
				in.params = append(in.params, p)
			}
		}
	}
	sort.Strings(in.params)
	return in, nil
}

// request is one generated read.
type request struct {
	endpoint, path, reference string
	conditional               bool
}

func (in *mixInputs) generate(rng *rand.Rand, kind string) request {
	pick := func(v []string) string { return v[rng.Intn(len(v))] }
	switch kind {
	case "query":
		// The dashboard's query form: each filter filled or not.
		q := url.Values{}
		if rng.Intn(2) == 0 {
			q.Set("param", pick(in.params))
		}
		if rng.Intn(2) == 0 {
			q.Set("kind", pick(in.kinds))
		}
		if rng.Intn(2) == 0 {
			q.Set("reaction", pick(in.reactions))
		}
		if rng.Intn(2) == 0 {
			q.Set("min-systems", fmt.Sprint(1+rng.Intn(3)))
		}
		if rng.Intn(2) == 0 {
			q.Set("all", "1")
		}
		return request{endpoint: "query", path: "/v1/query?" + q.Encode()}
	case "table_text":
		n := 1 + rng.Intn(12)
		return request{endpoint: "table", path: fmt.Sprintf("/v1/tables/%d?format=text", n), reference: tableFile(n)}
	case "table_json":
		return request{endpoint: "table", path: fmt.Sprintf("/v1/tables/%d", 1+rng.Intn(12))}
	case "outcomes":
		// The dashboard's drill-down page, or the page after it.
		return request{endpoint: "outcomes", path: fmt.Sprintf("/v1/systems/%s/outcomes?limit=50&offset=%d",
			url.PathEscape(pick(in.systems)), 50*rng.Intn(2))}
	default:
		return request{endpoint: "systems", path: "/v1/systems"}
	}
}

// round builds one round's shuffled reads; the write goes at index
// writeAt (before the read of that index, or last).
func (in *mixInputs) round(rng *rand.Rand) (reads []request, writeAt int) {
	for _, r := range roundReads {
		for i := 0; i < r.count; i++ {
			reads = append(reads, in.generate(rng, r.kind))
		}
	}
	rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	for _, i := range rng.Perm(len(reads))[:conditionalPerRound] {
		reads[i].conditional = true
	}
	return reads, rng.Intn(len(reads) + 1)
}

// ---- clients ----

// serveStats are the observations of the served loop: the shared loop
// samples (an iteration is one write with its table checks; reads are
// HTTP reads) and the daemon's own.
type serveStats struct {
	loopStats
	conditional, not304 int
	queue, run          samples
}

func (s *serveStats) merge(o *serveStats) {
	s.read = append(s.read, o.read...)
	s.pipeline = append(s.pipeline, o.pipeline...)
	s.job = append(s.job, o.job...)
	s.queue = append(s.queue, o.queue...)
	s.run = append(s.run, o.run...)
	s.conditional += o.conditional
	s.not304 += o.not304
	s.misconfs += o.misconfs
	s.iters += o.iters
}

// serveClient is one closed-loop connection.
type serveClient struct {
	d     *daemon
	ops   *opCounter
	etags map[string]string
	st    *serveStats
	tr    *tracer
}

// read issues one read request, checks its status (200, or 304 when
// conditional) and, for table text, the body against the reference. It
// counts the request as one operation and reports whether it passed.
func (c *serveClient) read(ctx context.Context, endpoint, path string, conditional bool, ref string) bool {
	inm := ""
	if conditional {
		inm = c.etags[path]
	}
	start := time.Now()
	status, body, etag, err := c.d.get(ctx, path, inm)
	took := time.Since(start)
	c.tr.record("server."+endpoint, took)
	if err == nil {
		switch {
		case status == http.StatusNotModified && inm != "":
			c.st.not304++
		case status != http.StatusOK:
			err = fmt.Errorf("GET %s: status %d", path, status)
		case ref != "":
			err = matchReference(ref, string(body))
		case endpoint != "table" || strings.Contains(path, "format=text"):
		default:
			var doc struct {
				Tables []json.RawMessage `json:"tables"`
			}
			if err = json.Unmarshal(body, &doc); err == nil && len(doc.Tables) == 0 {
				err = fmt.Errorf("GET %s: no tables", path)
			}
		}
	}
	if inm != "" {
		c.st.conditional++
	}
	if etag != "" {
		c.etags[path] = etag
	}
	if !c.ops.check("GET "+path, err) {
		return false
	}
	c.st.read.add(took)
	return true
}

// write runs one served pipeline iteration: submit a one-system job,
// wait for it to finish, then read and check every table.
func (c *serveClient) write(ctx context.Context, system string) {
	start := time.Now()
	doc, took, err := c.d.runJob(ctx, fmt.Sprintf(`{"systems":[%q]}`, system))
	if !c.ops.check("job "+system, err) {
		return
	}
	c.st.job.add(took)
	for _, s := range doc.Systems {
		c.st.misconfs += s.Replayed + s.Executed
	}
	if doc.StartedAt != nil && doc.DoneAt != nil {
		c.st.queue.add(doc.StartedAt.Sub(doc.CreatedAt))
		c.st.run.add(doc.DoneAt.Sub(*doc.StartedAt))
	}
	if !c.checkTables(ctx) {
		return
	}
	c.st.pipeline.add(time.Since(start))
}

// serveLoop runs the two closed-loop clients for d. Client i draws its
// requests and its write targets (a seeded cycle over all seven
// systems) from seed+i.
func serveLoop(ctx context.Context, dm *daemon, in *mixInputs, seed int64, d time.Duration, ops *opCounter, tr *tracer) *serveStats {
	deadline := time.Now().Add(d)
	stats := make([]*serveStats, procs)
	var wg sync.WaitGroup
	a0 := heapAlloc()
	start := time.Now()
	for i := range stats {
		st := &serveStats{}
		stats[i] = st
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(i)))
			c := &serveClient{d: dm, ops: ops, etags: map[string]string{}, st: st, tr: tr}
			var cycle []string
			for first := true; first || time.Now().Before(deadline); first = false {
				if ctx.Err() != nil {
					return
				}
				if len(cycle) == 0 {
					cycle = append([]string(nil), in.systems...)
					rng.Shuffle(len(cycle), func(a, b int) { cycle[a], cycle[b] = cycle[b], cycle[a] })
				}
				reads, writeAt := in.round(rng)
				for j := 0; j <= len(reads); j++ {
					if j == writeAt {
						c.write(ctx, cycle[0])
						cycle = cycle[1:]
					}
					if j < len(reads) {
						r := reads[j]
						c.read(ctx, r.endpoint, r.path, r.conditional, r.reference)
					}
				}
				st.iters++
			}
		}(i)
	}
	wg.Wait()
	total := &serveStats{}
	total.elapsed = time.Since(start)
	total.alloc = heapAlloc() - a0
	for _, st := range stats {
		total.merge(st)
	}
	return total
}

// serveSetup starts a daemon on a fresh state directory, fills its store
// with an all-systems job, and reads every table once (warming the
// daemon's caches and checking them).
func serveSetup(ctx context.Context, dir string, ops *opCounter) (*daemon, *mixInputs, error) {
	dm, err := startDaemon(dir)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*daemon, *mixInputs, error) {
		return nil, nil, errors.Join(err, dm.stop(ctx))
	}
	if _, _, err := dm.runJob(ctx, `{"all":true}`); err != nil {
		return fail(err)
	}
	c := &serveClient{d: dm, ops: ops, etags: map[string]string{}, st: &serveStats{}}
	c.checkTables(ctx) // a mismatch is counted as a failed operation
	in, err := newMixInputs(dm)
	if err != nil {
		return fail(err)
	}
	return dm, in, nil
}

// runServe is spexd under two closed-loop clients: reads from the
// outcome indexes and the memoized table replay, with one write in 52
// requests invalidating the caches.
func runServe(cfg config, ops *opCounter) *bench {
	var (
		dm   *daemon
		in   *mixInputs
		last *serveStats
	)
	seed := cfg.seed
	return &bench{
		setup: func(ctx context.Context) error {
			var err error
			dm, in, err = serveSetup(ctx, filepath.Join(cfg.dir, "serve"), ops)
			return err
		},
		loop: func(ctx context.Context, d time.Duration, tr *tracer) (*loopStats, error) {
			last = serveLoop(ctx, dm, in, seed, d, ops, tr)
			seed += procs // a second loop draws other requests
			return &last.loopStats, nil
		},
		layers: func(ctx context.Context, tr *tracer) (map[string]metric, error) {
			m, err := layerMetrics(ctx, cfg, ops)
			if err != nil {
				return nil, err
			}
			for k, v := range serverMetrics(last, tr) {
				m[k] = v
			}
			return m, nil
		},
		close: func(ctx context.Context) error {
			if dm == nil {
				return nil
			}
			return dm.stop(ctx)
		},
	}
}

// serverMetrics are the daemon's per-layer metrics from one traced
// loop.
func serverMetrics(st *serveStats, tr *tracer) map[string]metric {
	m := map[string]metric{
		"server.not_modified_ratio": {float64(st.not304) / float64(st.conditional), "ratio"},
		"server.job_queue_ms":       {st.queue.quantile(0.5), "ms"},
		"server.job_run_ms":         {st.run.quantile(0.5), "ms"},
	}
	for _, e := range []string{"query", "table", "outcomes", "systems"} {
		s := tr.durations("server." + e)
		m["server."+e+"_ms.p50"] = metric{s.quantile(0.5), "ms"}
		m["server."+e+"_ms.p99"] = metric{s.quantile(0.99), "ms"}
	}
	return m
}

// serveProbe runs a short served loop for the per-layer metrics of
// workloads other than serve.
func serveProbe(ctx context.Context, cfg config, ops *opCounter) (map[string]metric, error) {
	dm, in, err := serveSetup(ctx, filepath.Join(cfg.dir, "serve-probe"), ops)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	st := serveLoop(ctx, dm, in, cfg.seed, 3*time.Second, ops, tr)
	if err := dm.stop(ctx); err != nil {
		return nil, err
	}
	return serverMetrics(st, tr), nil
}
