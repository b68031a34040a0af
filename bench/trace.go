package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// The traced pass records spans from outside the program: every wrapper
// in this file sits on an interface the engine, the fabric or net/http
// already accepts, times the call through it and appends one span. The
// untraced pass constructs none of them.

// spanKind names a seam. Every kind but kindRound is a child of the
// round span with the same round id.
type spanKind uint8

const (
	kindRound   spanKind = iota // one whole campaign, on the generator goroutine
	kindEngine                  // Campaign.Execute or AdaptiveCampaign.Execute
	kindWorker                  // fabric Worker.Run, one per worker and round
	kindResolve                 // the fabric workers' resolver, once per lease
	kindRun                     // one scenario run through RunFunc or CheckpointSession.Run
	kindAppend                  // JournalSink.Append
	kindSync                    // journal Close (fsync)
	kindNext                    // ScenarioSource.Next
	kindObserve                 // ScenarioSource.Observe
	kindLease                   // worker POST /leases round trip
	kindFlush                   // worker POST /leases/{n}/flush round trip
	kindHandler                 // coordinator handler, inside a lease or flush round trip
	kindSubmit                  // daemon client POST /runs
	kindWait                    // daemon client GET /runs/{id}/events until the final event
	kindFetch                   // daemon client GET /runs/{id}/result
	numKinds
)

var kindNames = [numKinds]string{
	"round", "engine.execute", "fabric.worker", "fabric.resolve", "run",
	"journal.append", "journal.sync", "source.next", "source.observe",
	"http.lease", "http.flush", "coord.handler", "http.submit", "http.events", "http.result",
}

// parentOf gives the kind of the span that caused each kind. A span's
// parent is the enclosing span of that kind with the same round id.
var parentOf = [numKinds]spanKind{
	kindEngine: kindRound, kindWorker: kindRound, kindResolve: kindWorker, kindRun: kindEngine,
	kindAppend: kindEngine, kindSync: kindRound, kindNext: kindEngine, kindObserve: kindEngine,
	kindLease: kindWorker, kindFlush: kindWorker, kindHandler: kindFlush,
	kindSubmit: kindRound, kindWait: kindRound, kindFetch: kindRound,
}

// span is one timed call: nanoseconds since the tracer's epoch.
type span struct {
	kind       spanKind
	lane       int16
	round      int32
	start, end int64
}

// traceRounds bounds the rounds whose spans go into the Chrome trace
// file; statistics use every span.
const traceRounds = 2

// tracer collects the spans of one workload's traced window.
type tracer struct {
	epoch time.Time
	round atomic.Int32

	mu    sync.Mutex
	spans []span
	// free is the stack of idle worker rows: a run takes the lowest
	// free lane for its duration, so concurrent runs never share one
	// and N workers fill exactly lanes 0..N-1.
	free  []int16
	lanes int16
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now and add are no-ops on a nil tracer, so the few seams the
// workloads time themselves need no branches in the untraced pass.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) acquireLane() int16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.free); n > 0 {
		lane := t.free[n-1]
		t.free = t.free[:n-1]
		return lane
	}
	t.lanes++
	return t.lanes - 1
}

// addRun records a run span and returns its lane to the stack.
func (t *tracer) addRun(lane int16, start int64) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: kindRun, lane: lane, round: t.round.Load(), start: start, end: end})
	t.free = append(t.free, lane)
	t.mu.Unlock()
}

func (t *tracer) add(kind spanKind, lane int16, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: kind, lane: lane, round: t.round.Load(), start: start, end: end})
	t.mu.Unlock()
}

// nextRound starts a new round id; spans recorded from now on carry it.
func (t *tracer) nextRound() { t.round.Add(1) }

// durations returns the durations of every span of one kind, sorted.
func (t *tracer) durations(kind spanKind) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.kind == kind {
			out = append(out, float64(s.end-s.start))
		}
	}
	sort.Float64s(out)
	return out
}

// total sums the durations of one kind, in nanoseconds.
func (t *tracer) total(kind spanKind) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	for _, s := range t.spans {
		if s.kind == kind {
			sum += float64(s.end - s.start)
		}
	}
	return sum
}

// laneCount is the number of run lanes used so far: the peak number of
// concurrent scenario runs.
func (t *tracer) laneCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.lanes)
}

// reset drops every span recorded so far and restarts round numbering.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
	t.round.Store(0)
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeChrome appends the first traceRounds rounds of spans as Chrome
// trace-event objects. pid separates workloads; tid is the lane, with
// the generator goroutine on row 100.
func (t *tracer) writeChrome(w *bufio.Writer, pid int, workload string, first *bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.round > traceRounds {
			continue
		}
		if !*first {
			w.WriteString(",\n")
		}
		*first = false
		parent := kindNames[parentOf[s.kind]]
		if s.kind == kindRound {
			parent = ""
		}
		fmt.Fprintf(w, `{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"round":%d,"parent":%q}}`,
			kindNames[s.kind], workload, float64(s.start)/1e3, float64(s.end-s.start)/1e3, pid, s.lane, s.round, parent)
	}
}

// writeChromeFile writes every workload's tracer into one loadable
// trace-event document.
func writeChromeFile(path string, names []string, tracers map[string]*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	first := true
	for i, name := range names {
		if t := tracers[name]; t != nil {
			t.writeChrome(w, i+1, name, &first)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// generatorLane is the trace row of the goroutine that drives rounds.
const generatorLane = 100

// tracedRun wraps a RunFunc.
func (t *tracer) tracedRun(run stressor.RunFunc) stressor.RunFunc {
	return func(sc fault.Scenario) fault.Outcome {
		lane := t.acquireLane()
		start := t.now()
		out := run(sc)
		t.addRun(lane, start)
		return out
	}
}

// tracedCheckpointer wraps a TreeCheckpointer so every tree session it
// hands out times its runs (every workload runs with the tree on).
type tracedCheckpointer struct {
	stressor.TreeCheckpointer
	t *tracer
}

func (c tracedCheckpointer) NewTreeSession(cfg stressor.TreeConfig) stressor.CheckpointSession {
	return &tracedSession{inner: c.TreeCheckpointer.NewTreeSession(cfg), t: c.t}
}

// tracedSession keeps the RecyclableSession contract of the session it
// wraps, so the engine's abandonment path is unchanged.
type tracedSession struct {
	inner stressor.CheckpointSession
	t     *tracer
}

func (s *tracedSession) Run(sc fault.Scenario, fork sim.Time) fault.Outcome {
	lane := s.t.acquireLane()
	start := s.t.now()
	out := s.inner.Run(sc, fork)
	s.t.addRun(lane, start)
	return out
}

func (s *tracedSession) Close() { s.inner.Close() }

func (s *tracedSession) Recycle() {
	if r, ok := s.inner.(stressor.RecyclableSession); ok {
		r.Recycle()
	}
}

// tracedSink wraps a JournalSink.
type tracedSink struct {
	inner stressor.JournalSink
	t     *tracer
}

func (s tracedSink) Append(e journal.Entry) error {
	start := s.t.now()
	err := s.inner.Append(e)
	s.t.add(kindAppend, generatorLane+1, start)
	return err
}

// tracedSource wraps a ScenarioSource.
type tracedSource struct {
	inner stressor.ScenarioSource
	t     *tracer
}

func (s tracedSource) Next() (fault.Scenario, bool) {
	start := s.t.now()
	sc, ok := s.inner.Next()
	s.t.add(kindNext, generatorLane, start)
	return sc, ok
}

func (s tracedSource) Observe(o fault.Outcome) {
	start := s.t.now()
	s.inner.Observe(o)
	s.t.add(kindObserve, generatorLane, start)
}

// tracedTransport times a fabric worker's round trips, body included:
// the span ends when the response body has been read to EOF or closed.
type tracedTransport struct {
	inner http.RoundTripper
	t     *tracer
	lane  int16
}

func (rt tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := kindLease
	if strings.HasSuffix(req.URL.Path, "/flush") {
		kind = kindFlush
	} else if req.URL.Path != "/leases" {
		return rt.inner.RoundTrip(req)
	}
	start := rt.t.now()
	resp, err := rt.inner.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { rt.t.add(kind, rt.lane, start) }}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// tracedHandler is the middleware around Coordinator.Handler().
func (t *tracer) tracedHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(kindHandler, generatorLane+2, start)
	})
}
