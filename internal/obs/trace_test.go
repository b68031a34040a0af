package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestTraceJSONShape checks the export against the trace-event spec:
// an object with a traceEvents array whose entries carry ph/ts/pid/tid
// and, for complete events, a duration.
func TestTraceJSONShape(t *testing.T) {
	r := NewTraceRecorder()
	sp := r.Begin("campaign", "scenario-1", 3)
	time.Sleep(time.Millisecond)
	sp.Arg("class", "sdc").End()

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed.TraceEvents) != 1 {
		t.Fatalf("%d events, want 1", len(parsed.TraceEvents))
	}
	x := parsed.TraceEvents[0]
	if x.Ph != "X" || x.Name != "scenario-1" || x.TID != 3 || x.Dur <= 0 {
		t.Errorf("complete event = %+v", x)
	}
	if x.Args["class"] != "sdc" {
		t.Errorf("args = %v", x.Args)
	}
}

// TestTraceEmptyExport: an empty recorder must still emit a
// spec-conformant array, not null.
func TestTraceEmptyExport(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTraceRecorder().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"traceEvents":[]`)) {
		t.Errorf("empty trace export: %s", buf.String())
	}
}

// TestTraceNilSafety: every method on a nil recorder or span is a
// no-op so instrumented code needs no guards.
func TestTraceNilSafety(t *testing.T) {
	var r *TraceRecorder
	sp := r.Begin("c", "n", 0)
	sp.Arg("k", "v").End()
	if r.Len() != 0 {
		t.Error("nil recorder has events")
	}
	if err := WriteTraceFile(r, "/nonexistent/dir/t.json"); err != nil {
		t.Errorf("nil recorder dump errored: %v", err)
	}
}

// TestTraceConcurrentSpans: spans from many goroutines must not race
// (the campaign workers share one recorder).
func TestTraceConcurrentSpans(t *testing.T) {
	r := NewTraceRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Begin("t", "s", w).End()
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Errorf("events = %d, want 800", r.Len())
	}
}
