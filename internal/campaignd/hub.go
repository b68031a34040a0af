package campaignd

import (
	"sync"

	"repro/internal/obs"
)

// Event is one NDJSON line on a run's /events stream: a state
// transition or a rate-limited progress snapshot lifted straight off
// the campaign's obs.ProgressMeter.
type Event struct {
	// Type is "state" or "progress".
	Type string `json:"type"`
	// Run is the run ID.
	Run string `json:"run"`
	// State (state events) is queued/running/done/failed/interrupted.
	State string `json:"state,omitempty"`
	// Error (state events) carries the failure message.
	Error string `json:"error,omitempty"`
	// Progress payload (progress events).
	Completed  int     `json:"completed,omitempty"`
	Total      int     `json:"total,omitempty"`
	Failures   int     `json:"failures,omitempty"`
	RunsPerSec float64 `json:"runs_per_sec,omitempty"`
	ETAMillis  int64   `json:"eta_ms,omitempty"`
	// Final marks the last event of the stream.
	Final bool `json:"final,omitempty"`
}

// hub fans a run's events out to any number of subscribers. The last
// state event is retained so late subscribers (including ones
// arriving after the run finished) immediately learn where the run
// stands. Progress events are lossy by design: a slow subscriber
// drops intermediate snapshots — counted on the daemon's
// campaignd.events_dropped metric — never state transitions. publish
// never blocks on a subscriber, so a stalled /events reader can never
// stall the executor.
type hub struct {
	mu      sync.Mutex
	last    Event // last state event published
	closed  bool
	subs    map[chan Event]struct{}
	dropped *obs.Counter // the daemon's shared events-dropped counter
}

func newHub(id, state string, dropped *obs.Counter) *hub {
	return &hub{
		last:    Event{Type: "state", Run: id, State: state},
		subs:    make(map[chan Event]struct{}),
		dropped: dropped,
	}
}

// publish delivers e to every subscriber. State events update the
// retained snapshot and are delivered even to full subscriber
// channels (blocking briefly is acceptable; the channel is generously
// buffered and readers that vanished cancel via unsubscribe).
func (h *hub) publish(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	if e.Type == "state" {
		h.last = e
	}
	for ch := range h.subs {
		select {
		case ch <- e:
		default:
			if e.Type == "state" {
				// Never drop a state transition: make room by evicting
				// the oldest buffered event.
				select {
				case <-ch:
					h.dropped.Inc()
				default:
				}
				select {
				case ch <- e:
				default:
				}
			} else {
				// Progress snapshot dropped on a full subscriber.
				h.dropped.Inc()
			}
		}
	}
	if e.Final {
		h.closed = true
		for ch := range h.subs {
			close(ch)
		}
		h.subs = nil
	}
}

// subscribe registers a new subscriber. The retained state event is
// delivered first; on an already-finished run the channel closes
// right after it. cancel is idempotent and safe after close.
func (h *hub) subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 64)
	h.mu.Lock()
	ch <- h.last
	if h.closed {
		close(ch)
		h.mu.Unlock()
		return ch, func() {}
	}
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
		h.mu.Unlock()
	}
}

// state returns the retained state event.
func (h *hub) state() Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last
}
