package stressor

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/sim"
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

// familyForks is a Checkpointer over handoutProbe whose scenarios
// (familyScenarios) fork by the window family fam of their Start, so
// that the plan's dispatch order is index order and its families are
// fam's runs. Each session records, by scenario index, which session ran
// it.
type familyForks struct {
	p        *handoutProbe
	fam      []int
	by       []atomic.Int32 // 1 + the session that ran scenario i
	sessions atomic.Int32
}

func (f *familyForks) ForkTime(sc fault.Scenario) (sim.Time, bool) {
	return sim.Time(f.fam[sc.Faults[0].Start]), true
}

func (f *familyForks) planCache() *planCache { return nil }

func (f *familyForks) NewTreeSession(TreeConfig) CheckpointSession {
	return &familySession{f: f, id: f.sessions.Add(1)}
}

type familySession struct {
	f  *familyForks
	id int32
}

func (s *familySession) Run(sc fault.Scenario, _ sim.Time) fault.Outcome {
	s.f.by[sc.Faults[0].Start].Store(s.id)
	return s.f.p.run(sc)
}

func (s *familySession) Close() {}

// familyScenarios is n single permanent faults of one content at Starts
// 0..n-1, named s0..s(n-1), cut into families whose sizes cycle through
// sizes, and each scenario's family.
func familyScenarios(n int, sizes []int) ([]fault.Scenario, []int) {
	scs, fam := make([]fault.Scenario, n), make([]int, n)
	for i, f, left := 0, 0, sizes[0]; i < n; i++ {
		if left == 0 {
			f++
			left = sizes[f%len(sizes)]
		}
		left--
		fam[i] = f
		scs[i] = fault.Single(fault.Descriptor{
			Name: fmt.Sprintf("s%d", i), Model: fault.BitFlip, Class: fault.Permanent, Target: "m", Start: sim.Time(i),
		})
	}
	return scs, fam
}

// familySizes mixes singletons, families shorter than a chunk, and one
// longer than maxChunk.
var familySizes = []int{1, 3, 2, maxChunk + 3, 5, 1, 9}

// TestHandoutClaimsEndAtFamilyBoundaries: on a list with window
// families, workers claiming concurrently take every index exactly once,
// in spans that each end at a family boundary or at the end of the list
// and run at most to the end of the family a guided share stopped in.
func TestHandoutClaimsEndAtFamilyBoundaries(t *testing.T) {
	for _, n := range []int{maxChunk - 1, maxChunk, maxChunk + 1, 3 * maxChunk, 1000} {
		for _, workers := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				_, fam := familyScenarios(n, familySizes)
				e := &campaignExec{family: make([]int32, n)}
				for i, f := range fam {
					e.family[i] = int32(f)
				}
				e.published.Store(int64(n))
				e.final.Store(true)
				spans := make([][]span, workers)
				var wg sync.WaitGroup
				for w := range spans {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							sp, ok := e.claim(workers)
							if !ok {
								return
							}
							spans[w] = append(spans[w], sp)
						}
					}()
				}
				wg.Wait()
				claimed := make([]int, n)
				for _, ws := range spans {
					for _, sp := range ws {
						for i := sp.lo; i < sp.hi; i++ {
							claimed[i]++
						}
						if sp.hi < n && fam[sp.hi] == fam[sp.hi-1] {
							t.Errorf("span [%d, %d) ends inside family %d", sp.lo, sp.hi, fam[sp.hi])
						}
						if sp.hi-sp.lo > maxChunk && fam[sp.hi-1] != fam[sp.lo+maxChunk-1] {
							t.Errorf("span [%d, %d) runs past the family its share stopped in", sp.lo, sp.hi)
						}
					}
				}
				for i, c := range claimed {
					if c != 1 {
						t.Fatalf("index %d claimed %d times", i, c)
					}
				}
			})
		}
	}
}

// TestHandoutFamiliesRunWhole: a checkpointed list with window families
// runs every position once on every worker count, each family on one
// session; its journal appends stay serial and once per position; and
// Halt at any point stops the pool within one position per worker.
func TestHandoutFamiliesRunWhole(t *testing.T) {
	for _, n := range []int{maxChunk - 1, maxChunk, maxChunk + 1, 1000} {
		for _, workers := range []int{2, 4, 8} {
			scs, fam := familyScenarios(n, familySizes)
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				p := newHandoutProbe(t, n)
				f := &familyForks{p: p, fam: fam, by: make([]atomic.Int32, n)}
				res, err := (&Campaign{Name: "fam", Checkpointer: f, Workers: workers, Journal: p, Halt: p.halt}).Execute(scs)
				if err != nil {
					t.Fatal(err)
				}
				p.checkOnce(func(int) bool { return true })
				if len(res.Outcomes) != n || len(p.appends) != n || res.Halted {
					t.Fatalf("%d outcomes, %d journal entries (halted %v), want %d", len(res.Outcomes), len(p.appends), res.Halted, n)
				}
				for i := 1; i < n; i++ {
					if fam[i] == fam[i-1] && f.by[i].Load() != f.by[i-1].Load() {
						t.Errorf("family %d split between sessions at scenario %d", fam[i], i)
					}
				}
			})
			for _, haltAt := range []int{1, n / 3, n - 1} {
				t.Run(fmt.Sprintf("n=%d/workers=%d/halt=%d", n, workers, haltAt), func(t *testing.T) {
					p := newHandoutProbe(t, n)
					p.haltAt = haltAt
					f := &familyForks{p: p, fam: fam, by: make([]atomic.Int32, n)}
					res, err := (&Campaign{Name: "fam", Checkpointer: f, Workers: workers, Journal: p, Halt: p.halt}).Execute(scs)
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
					if !res.Halted && ran != n {
						t.Errorf("%d of %d ran, and the campaign does not say it was halted", ran, n)
					}
				})
			}
		}
	}
}
