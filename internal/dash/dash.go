// Package dash is the daemon's one event log: a process-wide event bus
// carrying everything spexd reports live — job lifecycle transitions
// across every namespace, scheduler reservations and releases, queue
// depth, stage transitions, coordinator rebalancing, and per-system
// campaign progress sampled by the bus itself (FoldProgress: the
// first sample, at most one per 200ms, and the final one, per system)
// — plus the embedded web UI that renders it.
//
// The bus is the owned aggregation contract: internal/server publishes
// into it from every lifecycle site, and every consumer is just a
// subscriber — the daemon-wide /v1/events SSE stream, the /ui/
// dashboard, a remote spexwatch, and each job's own
// /v1/jobs/{id}/events stream, which is a job-filtered subscription
// (SubOptions.Job) whose frame ids are bus sequence numbers. Delivery
// is best-effort by design — a stalled subscriber can never stall the
// daemon. Each subscriber has a bounded buffer, filled only with the
// events its filter selects; when it is full the OLDEST buffered
// event is dropped to make room (drop accounting lands on
// spex_dash_dropped_total, labelled by the dropped event's namespace).
// Raw channel sends of dash.Event outside this package are a spexlint
// `hubsend` finding: Publish is the only emit path.
//
// Every event carries a schema version (Event.V) and a bus-assigned,
// strictly increasing sequence number (Event.Seq). The bus retains a
// bounded ring of recent events, so a subscriber reconnecting with the
// last sequence number it saw (SSE Last-Event-ID) replays what it
// missed — or learns the ring has moved past it (Sub.Truncated).
package dash

import (
	"strings"
	"sync"
	"time"

	"spex/internal/shard"
)

// SchemaVersion is the event payload schema carried in Event.V.
// Consumers should ignore events with a newer major version than they
// understand; additive field changes do not bump it.
const SchemaVersion = 1

// Event kinds. One SSE frame's `event:` field is exactly the kind.
const (
	// KindJob is a job lifecycle transition (Event.State holds the new
	// state, Event.Error a failure message).
	KindJob = "job"
	// KindSched is a scheduler transition: a job queued, its systems
	// reserved, or its reservation released (Event.Sched).
	KindSched = "sched"
	// KindProgress is a throttled per-system campaign progress sample
	// (Event.Progress) folded in from the owning job's campaign
	// (FoldProgress).
	KindProgress = "progress"
	// KindStage is a staged job's per-system pipeline transition
	// (Event.Stage).
	KindStage = "stage"
	// KindCoord is a coordinate job's rebalance lifecycle event
	// (Event.Coord).
	KindCoord = "coord"
)

// Sched is the payload of a KindSched event.
type Sched struct {
	// Op is "queue" (job entered the queue), "reserve" (the dispatcher
	// claimed the job's systems and started it), or "release" (a
	// finished job returned its systems to the board).
	Op string `json:"op"`
	// Systems lists the reserved/released system names (reserve and
	// release only).
	Systems []string `json:"systems,omitempty"`
	// QueueDepth and Running are the namespace's queue shape after the
	// transition.
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"running"`
}

// Stage is the payload of a KindStage event — one system entering or
// leaving a pipeline stage of a staged job.
type Stage struct {
	System string `json:"system"`
	Stage  string `json:"stage"`
	// State is "running", "done", or "failed".
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// Coord is the payload of a KindCoord event, mirroring the
// coordinator's lifecycle verbs (plan, resume, spawn, exit, retry,
// steal, merge).
type Coord struct {
	Kind    string `json:"kind"`
	Worker  int    `json:"worker,omitempty"`
	From    int    `json:"from,omitempty"`
	Keys    int    `json:"keys,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Error   string `json:"error,omitempty"`
}

// Event is one entry of the daemon-wide stream — the typed, versioned
// wire form of GET /v1/events (compact JSON in each SSE data: line,
// the Seq mirrored as the frame's id:).
type Event struct {
	// V is the payload schema version (SchemaVersion; Publish stamps
	// it).
	V int `json:"v"`
	// Seq is the bus-assigned, strictly increasing sequence number —
	// the SSE event id a reconnecting subscriber resumes from.
	Seq uint64 `json:"seq"`
	// Time is the publish time (UTC; Publish stamps it when zero).
	Time time.Time `json:"time"`
	// Namespace names the tenant the event belongs to.
	Namespace string `json:"namespace"`
	// Kind discriminates the payload: job, sched, progress, stage,
	// coord.
	Kind string `json:"kind"`
	// Job is the owning job ID (every kind except pure queue-shape
	// sched events).
	Job string `json:"job,omitempty"`
	// State and Error carry a KindJob lifecycle transition.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// Progress is a KindProgress sample — the campaign's shard.Progress,
	// throttled per (job, system).
	Progress *shard.Progress `json:"progress,omitempty"`
	Sched    *Sched          `json:"sched,omitempty"`
	Stage    *Stage          `json:"stage,omitempty"`
	Coord    *Coord          `json:"coord,omitempty"`
}

// Options tunes a Bus.
type Options struct {
	// Ring bounds how many recent events are retained for
	// Last-Event-ID resume (0 = 4096).
	Ring int
	// ProgressInterval throttles FoldProgress: at most one KindProgress
	// event per (namespace, job, system) per interval, plus the first
	// sample and every completion (0 = 200ms).
	ProgressInterval time.Duration
}

const (
	defaultRing             = 4096
	defaultProgressInterval = 200 * time.Millisecond
	// AllNamespaces is the subscriber-gauge label for an unfiltered
	// subscription.
	AllNamespaces = "all"
)

// Bus is the daemon-wide event bus. Create with NewBus; publish with
// Publish (and FoldProgress for the throttled progress feed); attach
// consumers with Subscribe; Close ends every subscription.
type Bus struct {
	opts Options

	mu     sync.Mutex
	seq    uint64
	ring   []Event // oldest first, len <= opts.Ring
	subs   map[int]*subscriber
	nextID int
	closed bool
	// lastEmit throttles FoldProgress per (namespace, job, system).
	lastEmit map[string]time.Time
}

type subscriber struct {
	ch  chan Event
	ns  string // "" = all namespaces
	job string // "" = every job
}

// wants reports whether e passes the subscriber's filter.
func (s *subscriber) wants(e Event) bool {
	return (s.ns == "" || s.ns == e.Namespace) && (s.job == "" || s.job == e.Job)
}

// NewBus returns an empty bus.
func NewBus(opts Options) *Bus {
	if opts.Ring <= 0 {
		opts.Ring = defaultRing
	}
	if opts.ProgressInterval <= 0 {
		opts.ProgressInterval = defaultProgressInterval
	}
	return &Bus{
		opts:     opts,
		subs:     make(map[int]*subscriber),
		lastEmit: make(map[string]time.Time),
	}
}

// Publish stamps the event (V, Seq, Time), appends it to the resume
// ring, and fans it out to every matching subscriber, returning the
// sequence number it assigned. It never blocks: a subscriber whose
// buffer is full loses its oldest buffered event. Publish after Close
// is a no-op and returns 0.
func (b *Bus) Publish(e Event) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0
	}
	b.seq++
	e.Seq = b.seq
	if e.V == 0 {
		e.V = SchemaVersion
	}
	if e.Time.IsZero() {
		e.Time = time.Now().UTC()
	}
	if len(b.ring) >= b.opts.Ring {
		b.ring = b.ring[1:]
	}
	b.ring = append(b.ring, e)
	mDashEvents.With(e.Namespace).Inc()
	for _, sub := range b.subs {
		if !sub.wants(e) {
			continue
		}
		select {
		case sub.ch <- e:
		default:
			// Full: shed the oldest buffered event, then retry once. The
			// retry can still lose the race against a draining consumer —
			// then the buffer has room next Publish anyway.
			select {
			case old := <-sub.ch:
				mDashDropped.With(old.Namespace).Inc()
			default:
			}
			select {
			case sub.ch <- e:
			default:
				mDashDropped.With(e.Namespace).Inc()
			}
		}
	}
	return e.Seq
}

// FoldProgress folds one job's campaign progress stream into the bus,
// throttled per (namespace, job, system): the first sample for a
// system always publishes, a completed system or campaign always
// publishes, and everything in between is sampled at most once per
// ProgressInterval — the daemon-wide stream carries live bars without
// carrying every one of a million outcomes.
func (b *Bus) FoldProgress(namespace, job string, p shard.Progress) {
	key := namespace + "\x00" + job + "\x00" + p.System
	final := p.SystemTotal > 0 && p.SystemDone >= p.SystemTotal
	campaignDone := p.Total > 0 && p.Done >= p.Total
	now := time.Now()
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	last, seen := b.lastEmit[key]
	if seen && !final && !campaignDone && now.Sub(last) < b.opts.ProgressInterval {
		b.mu.Unlock()
		return
	}
	if final {
		delete(b.lastEmit, key)
	} else {
		b.lastEmit[key] = now
	}
	b.mu.Unlock()
	pc := p
	b.Publish(Event{Namespace: namespace, Kind: KindProgress, Job: job, Progress: &pc})
}

// ForgetJob drops a finished job's progress-throttle state so a
// resident daemon's memory does not grow with job history.
func (b *Bus) ForgetJob(namespace, job string) {
	prefix := namespace + "\x00" + job + "\x00"
	b.mu.Lock()
	defer b.mu.Unlock()
	for k := range b.lastEmit {
		if strings.HasPrefix(k, prefix) {
			delete(b.lastEmit, k)
		}
	}
}

// Sub is one attached subscription.
type Sub struct {
	// Backlog replays ring events the subscriber asked for (Seq >
	// AfterSeq, filtered like the live stream), oldest first. Consume
	// it before ranging over Ch; no event is in both, and none is lost
	// between.
	Backlog []Event
	// Truncated reports that the replay could not be fully honored:
	// the ring has already evicted events past AfterSeq, so the backlog
	// may start mid-stream.
	Truncated bool
	// Ch delivers live events until Cancel or Bus.Close, whichever
	// comes first (buffered events drain before the close).
	Ch <-chan Event
	// Cancel detaches the subscription; safe to call more than once.
	Cancel func()
}

// SubOptions tunes one subscription.
type SubOptions struct {
	// Namespace filters the stream to one tenant ("" = every
	// namespace).
	Namespace string
	// Job filters the stream to one job's events ("" = every job). Job
	// IDs are per namespace, so pair it with Namespace. The filter
	// applies before the buffer: other jobs' traffic never evicts this
	// job's events.
	Job string
	// Buffer is the subscriber's bounded channel size (min 1, 0 =
	// 256). When full, the oldest buffered event is dropped.
	Buffer int
	// AfterSeq resumes after a previously seen sequence number: ring
	// events with Seq > AfterSeq replay as Backlog. Zero subscribes
	// live-only (no replay) — except with Job set: a job's stream is
	// finite, so a job-filtered subscription always replays the job's
	// retained events after AfterSeq.
	AfterSeq uint64
}

// Subscribe attaches a consumer. On a closed bus the returned channel
// is already closed (the backlog, from the final ring, still replays).
func (b *Bus) Subscribe(o SubOptions) Sub {
	if o.Buffer < 1 {
		o.Buffer = 256
	}
	gaugeNS := o.Namespace
	if gaugeNS == "" {
		gaugeNS = AllNamespaces
	}
	sub := &subscriber{ch: make(chan Event, o.Buffer), ns: o.Namespace, job: o.Job}
	b.mu.Lock()
	defer b.mu.Unlock()
	var backlog []Event
	truncated := false
	if o.AfterSeq > 0 || o.Job != "" {
		if len(b.ring) > 0 && b.ring[0].Seq > o.AfterSeq+1 {
			truncated = true
		}
		if len(b.ring) == 0 && b.seq > o.AfterSeq {
			truncated = true
		}
		for _, e := range b.ring {
			if e.Seq > o.AfterSeq && sub.wants(e) {
				backlog = append(backlog, e)
			}
		}
	}
	ch := sub.ch
	if b.closed {
		close(ch)
		return Sub{Backlog: backlog, Truncated: truncated, Ch: ch, Cancel: func() {}}
	}
	id := b.nextID
	b.nextID++
	b.subs[id] = sub
	mDashSubscribers.With(gaugeNS).Add(1)
	cancel := func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if _, ok := b.subs[id]; ok {
			delete(b.subs, id)
			close(ch)
			mDashSubscribers.With(gaugeNS).Add(-1)
		}
	}
	return Sub{Backlog: backlog, Truncated: truncated, Ch: ch, Cancel: cancel}
}

// Close ends the stream: every subscriber channel closes after its
// buffered events drain, and future Publish/Subscribe calls are
// no-ops (Subscribe still replays the final ring).
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for id, sub := range b.subs {
		delete(b.subs, id)
		close(sub.ch)
		gaugeNS := sub.ns
		if gaugeNS == "" {
			gaugeNS = AllNamespaces
		}
		mDashSubscribers.With(gaugeNS).Add(-1)
	}
}
