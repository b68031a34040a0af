package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// TraceRecorder collects spans and exports them in
// the Chrome trace-event JSON format, loadable in chrome://tracing and
// Perfetto. It complements the VCD signal tracer (internal/sim.Tracer)
// with a wall-clock timeline of the *host*: kernel run phases,
// campaign scenarios per worker, experiment phases.
//
// A nil *TraceRecorder is valid everywhere: Begin returns a nil *Span
// whose methods are no-ops, so instrumented code needs no nil checks.
type TraceRecorder struct {
	mu     sync.Mutex
	epoch  time.Time
	events []traceEvent
}

// traceEvent is one entry of the traceEvents array; field names follow
// the Trace Event Format spec (ph "X" = complete).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds since trace start
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTraceRecorder creates a recorder whose timestamps are relative to
// now.
func NewTraceRecorder() *TraceRecorder {
	return &TraceRecorder{epoch: time.Now()}
}

// micros converts a wall-clock instant to spec microseconds.
func (r *TraceRecorder) micros(t time.Time) float64 {
	return float64(t.Sub(r.epoch)) / float64(time.Microsecond)
}

// Span is one in-flight duration event; call End exactly once.
type Span struct {
	r     *TraceRecorder
	cat   string
	name  string
	tid   int
	start time.Time
	args  map[string]any
}

// Begin opens a span in category cat on virtual thread tid. Distinct
// tids render as separate timeline rows, so concurrent work (campaign
// workers, per-scenario kernels) should use distinct tids.
func (r *TraceRecorder) Begin(cat, name string, tid int) *Span {
	if r == nil {
		return nil
	}
	return &Span{r: r, cat: cat, name: name, tid: tid, start: time.Now()}
}

// Arg attaches one key/value argument shown in the viewer's detail
// pane. It returns the span for chaining and is a no-op on nil spans.
func (s *Span) Arg(key string, value any) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = map[string]any{}
	}
	s.args[key] = value
	return s
}

// End closes the span, recording a complete ("X") event.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	dur := float64(end.Sub(s.start)) / float64(time.Microsecond)
	r.events = append(r.events, traceEvent{
		Name: s.name, Cat: s.cat, Ph: "X",
		TS: r.micros(s.start), Dur: &dur,
		PID: 1, TID: s.tid, Args: s.args,
	})
}

// Len reports the number of recorded events.
func (r *TraceRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// WriteJSON exports the trace as the JSON-object form of the format:
// {"traceEvents": [...], "displayTimeUnit": "ms"}.
func (r *TraceRecorder) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	events := make([]traceEvent, len(r.events))
	copy(events, r.events)
	r.mu.Unlock()
	type dump struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}
	if events == nil {
		events = []traceEvent{} // spec wants an array, not null
	}
	enc := json.NewEncoder(w)
	return enc.Encode(dump{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteTraceFile dumps the trace to path. A nil recorder is a no-op,
// so CLIs can call it unconditionally.
func WriteTraceFile(r *TraceRecorder, path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: close %s: %w", path, err)
	}
	return nil
}
