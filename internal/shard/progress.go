package shard

import "sync"

// Hub fans one campaign's Progress stream out to any number of
// subscribers in process — the CLI's adapter between a campaign's
// Options.OnProgress callback and its renderer (internal/progressui:
// spexinj -progress, spexeval -progress -global). Plug Emit into
// Options.OnProgress (or chain it from an existing callback) and
// attach consumers with Subscribe. The daemon does not use it: spexd
// feeds each completed outcome straight to the job's trace and to the
// internal/dash event bus, which samples per-job progress per system,
// and a job's SSE stream is a job-filtered bus subscription whose
// frame ids are bus sequence numbers.
//
// Delivery is best-effort by design: progress is advisory display
// state, and a stalled subscriber must never be able to stall the
// campaign. Each subscriber has a bounded buffer; when it is full the
// OLDEST buffered event is dropped to make room, so a lagging consumer
// always converges on the freshest counts (progress is monotonic per
// system — the latest event supersedes everything before it).
type Hub struct {
	mu     sync.Mutex
	subs   map[int]chan Progress
	nextID int
	closed bool
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[int]chan Progress)}
}

// Emit broadcasts one event to every subscriber. It never blocks: a
// subscriber whose buffer is full loses its oldest buffered event.
// Emit after Close is a no-op. The signature matches
// Options.OnProgress, so `gopts.OnProgress = hub.Emit` is the whole
// wiring.
func (h *Hub) Emit(p Progress) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	mHubEvents.Inc()
	for _, ch := range h.subs {
		select {
		case ch <- p:
		default:
			// Full: drop the oldest event, then retry once. The retry
			// can still fail if the subscriber drained the channel in
			// between — then the channel has room next Emit anyway.
			select {
			case <-ch:
				mHubDropped.Inc()
			default:
			}
			select {
			case ch <- p:
			default:
				mHubDropped.Inc()
			}
		}
	}
}

// Subscribe attaches a consumer with the given buffer size (minimum 1)
// and returns its event channel plus a cancel function. The channel is
// closed by cancel or by Close, whichever comes first; events buffered
// at Close time are still delivered before the close.
func (h *Hub) Subscribe(buf int) (<-chan Progress, func()) {
	if buf < 1 {
		buf = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ch := make(chan Progress, buf)
	if h.closed {
		close(ch)
		return ch, func() {}
	}
	id := h.nextID
	h.nextID++
	h.subs[id] = ch
	mHubSubscribers.Add(1)
	return ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[id]; ok {
			delete(h.subs, id)
			close(ch)
			mHubSubscribers.Add(-1)
		}
	}
}

// Close ends the stream: every subscriber's channel is closed (after
// its buffered events drain) and future Emit and Subscribe calls are
// no-ops. Call it once the campaign has returned so range-loop
// consumers terminate.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for id, ch := range h.subs {
		delete(h.subs, id)
		close(ch)
		mHubSubscribers.Add(-1)
	}
}
