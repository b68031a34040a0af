package stressor

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
)

// The hand-out's property test (DESIGN §7): publish, claim, retire over
// the list sizes around the chunk cap and the worker counts around the
// host's, and a source at lookahead. Run it under -race: the plain ints
// below are the detector's bait.

var (
	handoutSizes   = []int{0, 1, 2, maxChunk - 1, maxChunk, maxChunk + 1, 1000}
	handoutWorkers = []int{0, 1, 2, 4, 8}
)

// handoutProbe watches one Execute from every side the engine touches:
// it is the RunFunc, the JournalSink, the Halt hook and (through
// probeSource) the Source. The coordinator's callbacks share the plain
// counter calls, so two of them entered at once are a reported race and
// trip the busy flag besides.
type handoutProbe struct {
	t     *testing.T
	runs  []atomic.Int32 // by scenario index
	fails map[int]bool   // scenario indices whose run is an SDC

	busy    atomic.Bool
	calls   int
	appends []int // journal entry indices, in order

	// haltAt makes Halt return true from that many completed runs on;
	// failAppend makes that Append (0-based) fail. stopped is set just
	// before either returns, and late counts the runs entered after it.
	// Each of those waits at gate, which opens a little later — well after
	// the coordinator, back from the callback, has closed the range — so a
	// worker that raced the callback's return starts one late run, not
	// several, and a worker that starts one after the range closed is
	// still caught.
	haltAt, failAppend int
	stopped            atomic.Bool
	gate               chan struct{}
	late               atomic.Int32
}

func newHandoutProbe(t *testing.T, n int) *handoutProbe {
	return &handoutProbe{t: t, runs: make([]atomic.Int32, n), haltAt: -1, failAppend: -1}
}

func (p *handoutProbe) enter() func() {
	if !p.busy.CompareAndSwap(false, true) {
		p.t.Error("Append, Halt, Next or Observe entered concurrently")
	}
	p.calls++
	return func() { p.busy.Store(false) }
}

func (p *handoutProbe) stop() {
	p.gate = make(chan struct{})
	p.stopped.Store(true)
	time.AfterFunc(5*time.Millisecond, func() { close(p.gate) })
}

func (p *handoutProbe) run(sc fault.Scenario) fault.Outcome {
	if p.stopped.Load() {
		p.late.Add(1)
		<-p.gate
	}
	var i int
	fmt.Sscanf(sc.ID, "s%d", &i)
	p.runs[i].Add(1)
	cls := fault.Masked
	if p.fails[i] {
		cls = fault.SDC
	}
	return fault.Outcome{Scenario: sc, Class: cls, Detail: "ran " + sc.ID}
}

func (p *handoutProbe) Append(e journal.Entry) error {
	defer p.enter()()
	if len(p.appends) == p.failAppend {
		p.stop()
		return fmt.Errorf("disk full")
	}
	p.appends = append(p.appends, e.Index)
	return nil
}

func (p *handoutProbe) halt(completed int) bool {
	defer p.enter()()
	if p.haltAt >= 0 && completed >= p.haltAt {
		p.stop()
		return true
	}
	return false
}

// checkOnce asserts that every scenario ran at most once, and exactly
// once where want says so.
func (p *handoutProbe) checkOnce(want func(i int) bool) {
	p.t.Helper()
	for i := range p.runs {
		switch got := p.runs[i].Load(); {
		case got > 1:
			p.t.Errorf("scenario %d ran %d times", i, got)
		case got == 0 && want(i):
			p.t.Errorf("scenario %d never ran", i)
		}
	}
}

func handoutGrid(t *testing.T, minSize int, f func(t *testing.T, n, workers int)) {
	for _, n := range handoutSizes {
		if n < minSize {
			continue
		}
		for _, workers := range handoutWorkers {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) { f(t, n, workers) })
		}
	}
}

// TestHandoutRunsEveryPositionOnce: every position of a list runs
// exactly once, its result lands in its own slot, and it is journaled
// once — with Halt polled (and declining) all the way.
func TestHandoutRunsEveryPositionOnce(t *testing.T) {
	handoutGrid(t, 0, func(t *testing.T, n, workers int) {
		p := newHandoutProbe(t, n)
		c := &Campaign{Name: "once", Run: p.run, Workers: workers, Journal: p, Halt: p.halt}
		res, err := c.Execute(makeScenarios(n))
		if err != nil {
			t.Fatal(err)
		}
		p.checkOnce(func(int) bool { return true })
		if len(res.Outcomes) != n || res.Halted {
			t.Fatalf("%d outcomes (halted %v), want %d", len(res.Outcomes), res.Halted, n)
		}
		for i, o := range res.Outcomes {
			if want := fmt.Sprintf("s%d", i); o.Scenario.ID != want || o.Detail != "ran "+want {
				t.Fatalf("slot %d holds %s (%q)", i, o.Scenario.ID, o.Detail)
			}
		}
		seen := make([]bool, n)
		for _, i := range p.appends {
			if seen[i] {
				t.Errorf("scenario %d journaled twice", i)
			}
			seen[i] = true
		}
		if len(p.appends) != n {
			t.Errorf("%d journal entries, want %d", len(p.appends), n)
		}
	})
}

// TestHandoutStopsAfterHalt: once Halt has returned true no position
// starts — but for the one a worker had already looked at the closed
// range for — what did run is all delivered and journaled, and a
// campaign that left anything unrun says it was halted. (Halt is asked
// only while a position is still unclaimed: a short list on many workers
// is claimed whole before the first run is back, and completes.)
func TestHandoutStopsAfterHalt(t *testing.T) {
	handoutGrid(t, 2, func(t *testing.T, n, workers int) {
		p := newHandoutProbe(t, n)
		p.haltAt = n / 3
		c := &Campaign{Name: "halt", Run: p.run, Workers: workers, Journal: p, Halt: p.halt}
		res, err := c.Execute(makeScenarios(n))
		if err != nil {
			t.Fatal(err)
		}
		if late := int(p.late.Load()); late > workers {
			t.Errorf("%d runs started after Halt returned true, want at most one per worker (%d)", late, workers)
		}
		ran := 0
		for i := range p.runs {
			ran += int(p.runs[i].Load())
		}
		p.checkOnce(func(int) bool { return false })
		if ran != len(res.Outcomes) || ran != len(p.appends) {
			t.Errorf("%d runs, %d outcomes, %d journal entries: every run that happened is delivered", ran, len(res.Outcomes), len(p.appends))
		}
		if workers == 0 && ran != p.haltAt {
			t.Errorf("inline campaign ran %d, want exactly %d", ran, p.haltAt)
		}
		// What Halt lets finish: the span being retired, the span each
		// worker holds and the spans waiting on the channel, one per worker.
		if bound := (2*workers + 1) * maxChunk; ran-p.haltAt > bound {
			t.Errorf("%d runs past the halt point, bound %d", ran-p.haltAt, bound)
		}
		if !res.Halted && ran != n {
			t.Errorf("%d of %d ran, and the campaign does not say it was halted", ran, n)
		}
		if (n == 1000 || workers == 0) && !res.Halted {
			t.Error("halt did not interrupt")
		}
	})
}

// TestHandoutStopsAfterAppendError: a failed append aborts the campaign
// with its error, and the pool stops as it does for Halt.
func TestHandoutStopsAfterAppendError(t *testing.T) {
	handoutGrid(t, 2, func(t *testing.T, n, workers int) {
		p := newHandoutProbe(t, n)
		p.failAppend = n / 3
		c := &Campaign{Name: "jfail", Run: p.run, Workers: workers, Journal: p}
		if _, err := c.Execute(makeScenarios(n)); err == nil || err.Error() != "campaign jfail: disk full" {
			t.Fatalf("err = %v, want the append failure", err)
		}
		if late := int(p.late.Load()); late > workers {
			t.Errorf("%d runs started after the append failed, want at most one per worker (%d)", late, workers)
		}
		p.checkOnce(func(int) bool { return false })
		if len(p.appends) != p.failAppend {
			t.Errorf("%d entries appended after the failure", len(p.appends)-p.failAppend)
		}
	})
}

// TestHandoutStopOnFirstIsTheSequentialPrefix: with failures scattered
// over the list, a StopOnFirst campaign returns at every worker count
// exactly what the inline one does, has run every position up to the
// first failure once, and nothing twice.
func TestHandoutStopOnFirstIsTheSequentialPrefix(t *testing.T) {
	handoutGrid(t, 1, func(t *testing.T, n, workers int) {
		first := n * 2 / 3
		fails := map[int]bool{first: true, first + 1: true, n - 1: true}
		execute := func(workers int) (*Result, *handoutProbe) {
			p := newHandoutProbe(t, n)
			p.fails = fails
			res, err := (&Campaign{Name: "stop", Run: p.run, Workers: workers, StopOnFirst: true, Journal: p}).Execute(makeScenarios(n))
			if err != nil {
				t.Fatal(err)
			}
			return res, p
		}
		want, _ := execute(0)
		got, p := execute(workers)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("diverged from the inline campaign\ngot:  %+v\nwant: %+v", got, want)
		}
		if len(got.Outcomes) != first+1 || got.RunsToFirstFailure != first+1 {
			t.Errorf("%d outcomes, first failure at run %d; want %d", len(got.Outcomes), got.RunsToFirstFailure, first+1)
		}
		p.checkOnce(func(i int) bool { return i <= first })
	})
}

// probeSource is a listSource whose calls go through the probe, and
// which counts how far Next runs ahead of Observe.
type probeSource struct {
	listSource
	p        *handoutProbe
	maxAhead int
}

func (s *probeSource) Next() (fault.Scenario, bool) {
	defer s.p.enter()()
	sc, ok := s.listSource.Next()
	if ok {
		s.maxAhead = max(s.maxAhead, s.next-len(s.observed))
	}
	return sc, ok
}

func (s *probeSource) Observe(o fault.Outcome) {
	defer s.p.enter()()
	s.listSource.Observe(o)
}

// TestHandoutSourceAtLookahead: a source's proposals run exactly once
// each, reach Observe and the journal in proposal order, and never more
// than lookahead of them are out — at every worker count, with Halt
// asked before every proposal.
func TestHandoutSourceAtLookahead(t *testing.T) {
	for _, n := range []int{0, 1, lookahead - 1, lookahead, lookahead + 1, 300} {
		for _, workers := range handoutWorkers {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				p := newHandoutProbe(t, n)
				src := &probeSource{p: p, listSource: listSource{scs: makeScenarios(n)}}
				c := &Campaign{Name: "src", Run: p.run, Workers: workers, Source: src, Journal: p, Halt: p.halt}
				res, err := c.Execute(nil)
				if err != nil {
					t.Fatal(err)
				}
				p.checkOnce(func(int) bool { return true })
				if len(res.Outcomes) != n || len(src.observed) != n || len(p.appends) != n {
					t.Fatalf("%d outcomes, %d observed, %d journaled; want %d", len(res.Outcomes), len(src.observed), len(p.appends), n)
				}
				for i := 0; i < n; i++ {
					if want := fmt.Sprintf("s%d", i); res.Outcomes[i].Scenario.ID != want || src.observed[i].Scenario.ID != want || p.appends[i] != i {
						t.Fatalf("proposal %d: outcome %s, observed %s, journal entry %d", i, res.Outcomes[i].Scenario.ID, src.observed[i].Scenario.ID, p.appends[i])
					}
				}
				if src.maxAhead > lookahead {
					t.Errorf("Next ran %d proposals ahead of Observe, lookahead is %d", src.maxAhead, lookahead)
				}
				if n >= lookahead && src.maxAhead != lookahead {
					t.Errorf("Next ran at most %d ahead, want the whole lookahead %d", src.maxAhead, lookahead)
				}
				// Next once per proposal and once past the end, Halt before
				// each of those, Observe and Append once per proposal.
				if want := 2*(n+1) + 2*n; p.calls != want {
					t.Errorf("%d coordinator callbacks, want %d", p.calls, want)
				}
			})
		}
	}
}
