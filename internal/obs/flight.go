package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// FlightEvent is one entry of the flight recorder: a structured
// operational event with a monotonically increasing sequence number.
type FlightEvent struct {
	// Seq numbers every recorded event from 1; gaps never occur, so a
	// reader can tell how much history the ring has already shed.
	Seq uint64 `json:"seq"`
	// Time is the wall-clock instant the event was recorded.
	Time time.Time `json:"time"`
	// Kind classifies the event ("run.start", "scenario.timeout", ...).
	Kind string `json:"kind"`
	// Run names the run or campaign the event belongs to ("" for
	// daemon-wide events).
	Run string `json:"run,omitempty"`
	// Detail carries free-form context.
	Detail string `json:"detail,omitempty"`
}

// FlightRecorder is a fixed-size ring buffer of recent structured
// events — the daemon's black box. Recording is allocation-free (the
// ring is preallocated and entries are plain struct stores), so it is
// safe to leave enabled on every hot path; when a daemon wedges, is
// SIGQUIT'd, or panics, the ring holds the last N events of forensic
// context. A nil recorder is valid everywhere and records nothing.
type FlightRecorder struct {
	mu   sync.Mutex
	ring []FlightEvent
	next uint64 // total events ever recorded
}

// DefaultFlightCap is the daemon's ring size.
const DefaultFlightCap = 256

// NewFlightRecorder creates a recorder keeping the last size events;
// size must be positive.
func NewFlightRecorder(size int) *FlightRecorder {
	return &FlightRecorder{ring: make([]FlightEvent, size)}
}

// Record appends one event, overwriting the oldest when the ring is
// full. The strings are stored as passed — callers on hot paths pass
// preformatted or static strings, keeping Record allocation-free.
func (f *FlightRecorder) Record(kind, run, detail string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.next++
	f.ring[int((f.next-1)%uint64(len(f.ring)))] = FlightEvent{
		Seq: f.next, Time: time.Now(), Kind: kind, Run: run, Detail: detail,
	}
	f.mu.Unlock()
}

// Recordf is Record with fmt formatting for the detail — for cold
// paths where context is worth an allocation.
func (f *FlightRecorder) Recordf(kind, run, format string, args ...any) {
	if f == nil {
		return
	}
	f.Record(kind, run, fmt.Sprintf(format, args...))
}

// Total reports how many events were ever recorded (including ones
// the ring has already dropped).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Snapshot returns the retained events, oldest first.
func (f *FlightRecorder) Snapshot() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.next
	cap64 := uint64(len(f.ring))
	start := uint64(0)
	if n > cap64 {
		start = n - cap64
	}
	out := make([]FlightEvent, 0, n-start)
	for seq := start + 1; seq <= n; seq++ {
		out = append(out, f.ring[int((seq-1)%cap64)])
	}
	return out
}

// WriteText dumps the retained events as one human-readable block —
// the SIGQUIT / panic forensic format.
func (f *FlightRecorder) WriteText(w io.Writer) error {
	events := f.Snapshot()
	total := f.Total()
	if _, err := fmt.Fprintf(w, "== flight recorder (%d of %d events retained) ==\n", len(events), total); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(w, "%6d  %s  %-18s run=%-8s %s\n",
			e.Seq, e.Time.Format(time.RFC3339Nano), e.Kind, e.Run, e.Detail); err != nil {
			return err
		}
	}
	return nil
}
