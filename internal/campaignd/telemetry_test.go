package campaignd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// httpGet fetches url and returns status plus body.
func httpGet(t testing.TB, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// promSampleLine matches one exposition sample, capturing its value.
var promSampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})? (-?[0-9.e+E-]+|\+Inf|NaN)$`)

// checkPromShape validates every line of a /metrics document: TYPE
// comments with a known kind, or well-formed samples.
func checkPromShape(t testing.TB, doc string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(doc, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			kind := line[strings.LastIndexByte(line, ' ')+1:]
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("bad TYPE line %q", line)
			}
			continue
		}
		if !promSampleLine.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

// promValue extracts the value of the first sample whose name{labels}
// prefix matches prefix, returning ok=false when the series is absent.
func promValue(doc, prefix string) (float64, bool) {
	for _, line := range strings.Split(doc, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// TestPromMidFlight is the headline telemetry assertion: a scrape of
// GET /metrics taken while a campaign executes shows that run's
// campaign_completed counter moving. The run's registry is only merged
// into the exposition while it is live, so observing the series at all
// proves the scrape happened mid-flight.
func TestPromMidFlight(t *testing.T) {
	sched, srv := newTestDaemon(t)
	id := submit(t, srv.URL, genInline("mid", 200, "10s"))

	deadline := time.After(120 * time.Second)
	caught := false
	for !caught {
		select {
		case <-deadline:
			t.Fatal("never caught the run mid-flight on /metrics")
		default:
		}
		code, doc := httpGet(t, srv.URL+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("GET /metrics = %d", code)
		}
		checkPromShape(t, doc)
		v, ok := promValue(doc, `campaign_completed{campaign="mid"}`)
		if !ok || v <= 0 {
			continue
		}
		// Same-iteration cross-check: the per-run live registry endpoint
		// serves while the campaign executes. The run may have finished
		// between the two requests; retry the whole iteration if so.
		lcode, lbody := httpGet(t, srv.URL+"/runs/"+id+"/metrics?live=1")
		if lcode == http.StatusNotFound {
			continue
		}
		if lcode != http.StatusOK {
			t.Fatalf("GET ?live=1 = %d: %s", lcode, lbody)
		}
		var snap struct {
			Counters map[string]uint64 `json:"counters"`
		}
		if err := json.Unmarshal([]byte(lbody), &snap); err != nil {
			t.Fatalf("live metrics not JSON: %v", err)
		}
		if snap.Counters[`campaign.completed{campaign=mid}`] == 0 {
			t.Fatalf("live registry shows no completed runs: %s", lbody)
		}
		caught = true
	}
	waitFinal(t, sched, id, StateDone)

	// Terminal: the run's registry leaves the exposition; the daemon
	// aggregates remain, now recording the completion.
	_, doc := httpGet(t, srv.URL+"/metrics")
	checkPromShape(t, doc)
	if _, ok := promValue(doc, `campaign_completed{campaign="mid"}`); ok {
		t.Fatal("finished run still exposed on /metrics")
	}
	if v, ok := promValue(doc, `campaignd_runs{state="done"}`); !ok || v != 1 {
		t.Fatalf(`campaignd_runs{state="done"} = %v, %v; want 1`, v, ok)
	}
	if v, ok := promValue(doc, "campaignd_queue_wait_ns_count"); !ok || v < 1 {
		t.Fatalf("campaignd_queue_wait_ns_count = %v, %v; want >= 1", v, ok)
	}
	if _, ok := promValue(doc, "campaignd_queue_depth"); !ok {
		t.Fatal("campaignd_queue_depth missing from exposition")
	}
}

// TestHubSlowConsumerNeverBlocks pins the executor-isolation contract:
// publishing to a hub whose subscriber never reads must not block, and
// every dropped progress snapshot lands on the shared counter. State
// transitions survive even a full channel.
func TestHubSlowConsumerNeverBlocks(t *testing.T) {
	dropped := &obs.Counter{}
	h := newHub("r000001", StateQueued, dropped)
	ch, cancel := h.subscribe()
	defer cancel()

	const bursts = 1000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < bursts; i++ {
			h.publish(Event{Type: "progress", Run: "r000001", Completed: i})
		}
		h.publish(Event{Type: "state", Run: "r000001", State: StateDone, Final: true})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publish blocked on a slow consumer")
	}
	if dropped.Value() == 0 {
		t.Fatal("no progress events counted as dropped")
	}
	// Drain: the terminal state event must have survived the backlog.
	var final *Event
	for e := range ch {
		if e.Final {
			e := e
			final = &e
		}
	}
	if final == nil || final.State != StateDone {
		t.Fatalf("final state event lost; got %+v", final)
	}
	if got := h.state(); got.State != StateDone {
		t.Fatalf("retained state = %q, want done", got.State)
	}
}

// TestEventsDroppedMetric ties the hub drop counter to the daemon
// exposition: a stalled NDJSON reader shows up on
// campaignd.events_dropped.
func TestEventsDroppedMetric(t *testing.T) {
	sched, srv := newTestDaemon(t)
	id := submit(t, srv.URL, genInline("stall", 150, "10s"))

	// Subscribe and never read: the 64-slot buffer fills and
	// per-scenario progress events start dropping (ProgressInterval is
	// -1, so every completion publishes). The campaign itself must
	// finish unimpeded — that is the never-blocks contract.
	h := sched.Hub(id)
	if h == nil {
		t.Fatalf("run %s has no hub", id)
	}
	_, cancel := h.subscribe()
	defer cancel()

	waitFinal(t, sched, id, StateDone)
	if sched.eventsDropped.Value() == 0 {
		t.Fatal("stalled subscriber produced no events_dropped")
	}
	_, doc := httpGet(t, srv.URL+"/metrics")
	if v, ok := promValue(doc, "campaignd_events_dropped"); !ok || v == 0 {
		t.Fatalf("campaignd_events_dropped = %v, %v; want > 0", v, ok)
	}
}

// TestTraceLifecycle drives a "trace": true run to completion and
// downloads its Chrome trace; a run submitted without tracing is a 400.
func TestTraceLifecycle(t *testing.T) {
	sched, srv := newTestDaemon(t)
	traced := strings.Replace(tinySpec, `{"campaign":"tiny"`, `{"campaign":"tiny","trace":true`, 1)
	id := submit(t, srv.URL, traced)
	waitFinal(t, sched, id, StateDone)

	code, body := httpGet(t, srv.URL+"/runs/"+id+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET /trace = %d: %s", code, body)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 || doc.Unit != "ms" {
		t.Fatalf("trace document empty or malformed: %d events, unit %q", len(doc.TraceEvents), doc.Unit)
	}

	// Untraced run: asking for its trace is a client error, not a 404.
	plain := submit(t, srv.URL, tinySpec)
	waitFinal(t, sched, plain, StateDone)
	code, body = httpGet(t, srv.URL+"/runs/"+plain+"/trace")
	if code != http.StatusBadRequest {
		t.Fatalf("GET /trace on untraced run = %d: %s", code, body)
	}
	if !strings.Contains(body, `\"trace\": true`) {
		t.Fatalf("400 body does not explain the fix: %s", body)
	}
	if code, _ := httpGet(t, srv.URL+"/runs/r999999/trace"); code != http.StatusNotFound {
		t.Fatalf("GET /trace on unknown run = %d, want 404", code)
	}
}

// TestFlightEndpoint checks the run lifecycle leaves the expected marks
// in the flight recorder, via both JSON and text renderings.
func TestFlightEndpoint(t *testing.T) {
	sched, srv := newTestDaemon(t)
	id := submit(t, srv.URL, tinySpec)
	waitFinal(t, sched, id, StateDone)

	code, body := httpGet(t, srv.URL+"/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/flight = %d", code)
	}
	var doc struct {
		Total  uint64            `json:"total"`
		Events []obs.FlightEvent `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range doc.Events {
		kinds[e.Kind]++
		if e.Run != id {
			t.Fatalf("unexpected run %q in flight event %+v", e.Run, e)
		}
	}
	for _, want := range []string{"run.submit", "run.start", "run.done"} {
		if kinds[want] != 1 {
			t.Fatalf("flight kind %q seen %d times (events %v)", want, kinds[want], kinds)
		}
	}
	if doc.Total < 3 {
		t.Fatalf("flight total = %d, want >= 3", doc.Total)
	}

	code, text := httpGet(t, srv.URL+"/debug/flight?format=text")
	if code != http.StatusOK || !strings.Contains(text, "flight recorder") || !strings.Contains(text, "run.done") {
		t.Fatalf("text dump = %d: %s", code, text)
	}
}

// TestDumpFlight covers the SIGQUIT / panic forensic writer.
func TestDumpFlight(t *testing.T) {
	var buf bytes.Buffer
	sched, err := NewScheduler(Config{DataDir: t.TempDir(), FlightDump: &buf})
	if err != nil {
		t.Fatal(err)
	}
	sched.Start()
	defer sched.Stop()
	sched.Flight().Record("test.mark", "r000000", "hello")
	sched.DumpFlight("SIGQUIT")
	out := buf.String()
	if !strings.Contains(out, "campaignd flight dump (SIGQUIT):") || !strings.Contains(out, "test.mark") {
		t.Fatalf("dump missing header or event:\n%s", out)
	}
	// Without a sink the dump is a no-op, not a panic.
	s2, err := NewScheduler(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer s2.Stop()
	s2.DumpFlight("SIGQUIT")
}

// TestHubsAreReleasedWithTheFinalEvent: the daemon holds an event hub
// per pending run, not per run ever submitted. A done or failed run's
// hub goes with its final event: a subscriber attached before that
// event still receives it, afterwards the daemon holds no hub, and
// /events answers from the store with the very line the hub delivered.
// An interrupted run keeps its hub — it is still queued on disk.
func TestHubsAreReleasedWithTheFinalEvent(t *testing.T) {
	dir := t.TempDir()
	sched, err := NewScheduler(Config{DataDir: dir, ProgressInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(sched))
	defer srv.Close()
	hubs := func() int {
		sched.mu.Lock()
		defer sched.mu.Unlock()
		return len(sched.hubs)
	}

	// Queue before the executor starts, so the subscriber and the
	// sabotage below are in place before any run can finish.
	const n = 5
	var ids []string
	for i := 0; i < n; i++ {
		ids = append(ids, submit(t, srv.URL, tinySpec))
	}
	doomed := submit(t, srv.URL, tinySpec)
	if err := os.WriteFile(sched.Store().JournalPath(doomed), []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	events, cancel := sched.Hub(ids[0]).subscribe()
	defer cancel()
	if hubs() != n+1 {
		t.Fatalf("%d hubs for %d queued runs", hubs(), n+1)
	}
	sched.Start()

	var last Event
	for e := range events {
		last = e
	}
	if !last.Final || last.State != StateDone {
		t.Fatalf("the subscriber attached before the final event last saw %+v", last)
	}
	live, err := json.Marshal(last)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		waitFinal(t, sched, id, StateDone)
	}
	waitFinal(t, sched, doomed, StateFailed)
	if got := hubs(); got != 0 {
		t.Errorf("%d hubs held after every run finished, want 0", got)
	}
	if code, body := httpGet(t, srv.URL+"/runs/"+ids[0]+"/events"); code != http.StatusOK || body != string(live)+"\n" {
		t.Errorf("/events after completion = %d %q; the hub delivered %q", code, body, live)
	}
	_, body := httpGet(t, srv.URL+"/runs/"+doomed+"/events")
	var failed Event
	if err := json.Unmarshal([]byte(body), &failed); err != nil || !failed.Final || failed.State != StateFailed || failed.Error == "" {
		t.Errorf("/events of the failed run = %q (%v)", body, err)
	}

	// Stop mid-run: the interrupted run's hub stays, closed, so a late
	// subscriber still learns why the stream ended.
	slow := submit(t, srv.URL, genInline("slow", 200, "10s"))
	ch, cancelSlow := sched.Hub(slow).subscribe()
	defer cancelSlow()
	for e := range ch {
		if e.Type == "progress" {
			go sched.Stop()
			break
		}
	}
	sched.Stop()
	h := sched.Hub(slow)
	if h == nil || h.state().State != "interrupted" || hubs() != 1 {
		t.Fatalf("interrupted run: hub %v, %d hubs held; want its hub kept", h, hubs())
	}
}
