package stressor

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Fork windows on a toy prototype (DESIGN §14): the memo may answer a
// scenario only when the run it remembers is provably the same
// experiment. windowModel is active every windowPeriod — so (10, 20),
// (20, 30), ... are its idle windows — and every observable it has is in
// the outcome detail, time stamps included: a verdict carried from one
// instant of a window to another where it does not hold shows as a
// detail that differs from the plain path's.

const (
	windowPeriod  = 10
	windowHorizon = 100
)

type windowModel struct {
	k    *sim.Kernel
	tick *sim.Event
	// reg and reg2 are sampled into acc at every tick: the quiet sites.
	reg, reg2, acc int
	// line has a method sensitive to it; edgeAt is when it last ran.
	line   *sim.Signal[bool]
	edgeAt sim.Time
	// late fires only when an injector notifies it; lateAt is when.
	late   *sim.Event
	lateAt sim.Time
}

// elaborate builds the model on k, in the same order every time. The
// line keeps its address, which the registry's injector holds.
func (m *windowModel) elaborate(k *sim.Kernel) {
	*m = windowModel{k: k, reg: 1, reg2: 1, line: m.line}
	m.tick = k.NewEvent("tick")
	k.MethodNoInit("tick", func() {
		m.acc += m.reg + m.reg2
		m.tick.Notify(windowPeriod)
	}, m.tick)
	m.tick.Notify(windowPeriod)
	*m.line = *sim.NewSignal(k, "line", false)
	k.MethodNoInit("edge", func() { m.edgeAt = k.Now() }, m.line.Changed())
	m.late = k.NewEvent("late")
	k.MethodNoInit("late", func() { m.lateAt = k.Now() }, m.late)
}

func (m *windowModel) registry() *fault.Registry {
	reg := fault.NewRegistry()
	quiet := func(site string, v *int) {
		reg.MustRegister(&fault.FuncInjector{
			SiteName: site, Models: []fault.Model{fault.StuckAt1},
			InjectFn: func(fault.Descriptor) error { *v = 100; return nil },
			RevertFn: func(fault.Descriptor) error { *v = 1; return nil },
		})
	}
	quiet("toy.reg", &m.reg)
	quiet("toy.reg2", &m.reg2)
	reg.MustRegister(signalInjector("toy.line", m.line, false, true))
	reg.MustRegister(&fault.FuncInjector{
		SiteName: "toy.late", Models: []fault.Model{fault.Delay},
		// 25 from the injection instant: past the end of every window.
		InjectFn: func(fault.Descriptor) error { m.late.Notify(25); return nil },
	})
	reg.MustRegister(&fault.FuncInjector{
		SiteName: "toy.clock", Models: []fault.Model{fault.Omission},
		InjectFn: func(fault.Descriptor) error { m.tick.Cancel(); return nil },
	})
	reg.MustRegister(&fault.FuncInjector{
		SiteName: "toy.spawn", Models: []fault.Model{fault.Babbling},
		// A process the injector elaborates runs at once: activity with no
		// notification behind it.
		InjectFn: func(fault.Descriptor) error {
			m.k.Method("rogue", func() { m.lateAt = m.k.Now() })
			return nil
		},
	})
	reg.MustRegister(&fault.FuncInjector{
		SiteName: "toy.err", Models: []fault.Model{fault.Open},
		InjectFn: func(fault.Descriptor) error { return errors.New("no such wire") },
	})
	reg.MustRegister(&fault.FuncInjector{
		SiteName: "toy.panic", Models: []fault.Model{fault.Open},
		InjectFn: func(fault.Descriptor) error { panic(fmt.Sprintf("torn model at %d", uint64(m.k.Now()))) },
	})
	return reg
}

type windowState struct {
	reg, reg2, acc int
	edgeAt, lateAt sim.Time
}

func (m *windowModel) SnapshotState(any) any {
	return windowState{m.reg, m.reg2, m.acc, m.edgeAt, m.lateAt}
}

// RestoreState returns to a golden state, which never holds the line
// forced. Release tells the edge method of the change; withdrawing that
// notification leaves the restored kernel as quiet as the golden run's.
func (m *windowModel) RestoreState(st any) {
	s := st.(windowState)
	m.reg, m.reg2, m.acc, m.edgeAt, m.lateAt = s.reg, s.reg2, s.acc, s.edgeAt, s.lateAt
	m.line.Release()
	m.line.Changed().Cancel()
}

func (m *windowModel) HashState(h *sim.StateHash) {
	h.Int(m.reg)
	h.Int(m.reg2)
	h.Int(m.acc)
	h.Bool(m.line.Read())
	h.Time(m.edgeAt)
	h.Time(m.lateAt)
}

// windowToy is windowModel's Model. Every observable the model has is in
// the goal detail, so in the outcome detail.
type windowToy struct{ FinalObservation[*windowModel] }

func (*windowToy) Build(k *sim.Kernel) (*windowModel, *fault.Registry) {
	m := &windowModel{line: new(sim.Signal[bool])}
	m.elaborate(k)
	return m, m.registry()
}

func (*windowToy) Observe(m *windowModel) analysis.Observation {
	return analysis.Observation{GoalViolated: true,
		GoalDetail: fmt.Sprintf("acc=%d line=%v edge@%d late@%d", m.acc, m.line.Read(), uint64(m.edgeAt), uint64(m.lateAt))}
}

func (*windowToy) Golden(*windowModel, analysis.Observation) error { return nil }

// windowForks forks every scenario just past the last tick before its
// first action — one fork to a window whatever the scenario holds, so
// only the session's own keying stands between a transient and the memo.
type windowForks struct {
	*Host[*windowModel, analysis.Observation]
}

func (windowForks) ForkTime(sc fault.Scenario) (sim.Time, bool) {
	return (ForkTime(sc)-1)/windowPeriod*windowPeriod + 1, true
}

// planCache keeps no plan: the host's is sorted by the host's forks.
func (windowForks) planCache() *planCache { return nil }

func newWindowHost(t *testing.T) *Host[*windowModel, analysis.Observation] {
	t.Helper()
	h, err := NewHost[*windowModel, analysis.Observation]("toy", &windowToy{}, windowHorizon)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

func permanent(name, site string, model fault.Model, at sim.Time) fault.Descriptor {
	return fault.Descriptor{Name: name, Model: model, Class: fault.Permanent, Target: site, Start: at}
}

// TestForkWindowNeverAWrongVerdict runs each kind of scenario the memo
// must not answer at two instants of one idle window, on one session:
// no hit, and the outcomes the plain path gives. The quiet single
// permanent fault is the control: it is answered, once, for the second
// instant of its window and for no instant outside it.
func TestForkWindowNeverAWrongVerdict(t *testing.T) {
	at := func(descs func(name string, at sim.Time) []fault.Descriptor, instants ...sim.Time) []fault.Scenario {
		var out []fault.Scenario
		for _, i := range instants {
			name := fmt.Sprintf("f@%d", uint64(i))
			out = append(out, fault.Scenario{ID: name, Faults: descs(name, i)})
		}
		return out
	}
	one := func(site string, model fault.Model) func(string, sim.Time) []fault.Descriptor {
		return func(name string, at sim.Time) []fault.Descriptor {
			return []fault.Descriptor{permanent(name, site, model, at)}
		}
	}
	for _, tc := range []struct {
		name       string
		scenarios  []fault.Scenario
		hits, loud uint64
		// sameAnyway marks a case both of whose instants come to one outcome:
		// the memo would have been right, the silence test refuses it all the
		// same.
		sameAnyway bool
	}{
		// 12 and 15 share (10, 20); 20 is the tick itself, which samples reg
		// before the stressor (the last process) sets it; 21 is the next window.
		{"quiet permanent fault", at(one("toy.reg", fault.StuckAt1), 12, 15, 20, 21, 10), 1, 0, true},
		{"forced signal with a sensitive method", at(one("toy.line", fault.StuckAt1), 12, 15), 0, 2, false},
		{"timed notification beyond the window", at(one("toy.late", fault.Delay), 12, 15), 0, 2, false},
		{"process spawned by the injector", at(one("toy.spawn", fault.Babbling), 12, 15), 0, 2, false},
		{"next event withdrawn", at(one("toy.clock", fault.Omission), 12, 15), 0, 2, true},
		{"injection error", at(one("toy.err", fault.Open), 12, 15), 0, 2, false},
		{"panic", at(one("toy.panic", fault.Open), 12, 15), 0, 0, false},
		{"transient", at(func(name string, at sim.Time) []fault.Descriptor {
			d := permanent(name, "toy.reg", fault.StuckAt1, at)
			d.Class, d.Duration = fault.Transient, 27
			return []fault.Descriptor{d}
		}, 12, 15), 0, 0, false},
		{"two faults", at(func(name string, at sim.Time) []fault.Descriptor {
			return []fault.Descriptor{permanent(name, "toy.reg", fault.StuckAt1, at), permanent(name+"b", "toy.reg2", fault.StuckAt1, at+5)}
		}, 12, 15), 0, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oracle := newWindowHost(t)
			oracle.ReuseOff = true
			want, err := (&Campaign{Name: "plain", Run: oracle.RunScenario}).Execute(tc.scenarios)
			if err != nil {
				t.Fatal(err)
			}
			h := newWindowHost(t)
			reg := obs.NewRegistry()
			got, err := (&Campaign{
				Name: "plain", Workers: 1, Metrics: reg, Checkpointer: windowForks{h},
			}).Execute(tc.scenarios)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("tree sessions diverge from the plain path\ngot:  %+v\nwant: %+v", got.Outcomes, want.Outcomes)
			}
			if same := want.Outcomes[0].Detail == want.Outcomes[1].Detail; same != tc.sameAnyway {
				t.Errorf("the plain path comes to %q and %q: a wrong hit would go unseen", want.Outcomes[0].Detail, want.Outcomes[1].Detail)
			}
			l := obs.L("campaign", "plain")
			if hits := reg.Counter("campaign.fork_window_hits", l).Value(); hits != tc.hits {
				t.Errorf("fork_window_hits = %d, want %d", hits, tc.hits)
			}
			if loud := reg.Counter("campaign.fork_window_loud", l).Value(); loud != tc.loud {
				t.Errorf("fork_window_loud = %d, want %d", loud, tc.loud)
			}
		})
	}
}

// TestTreeSessionsEvictUnderContention: two sessions of one host whose
// budget is two nodes walk the same scenarios on two goroutines, in
// opposite directions, so each keeps evicting nodes the other restores
// from and extending from nodes the other published. Every outcome must
// equal a ReuseOff host's. Under -race this is the audit of publish,
// evict and restore racing across sessions.
func TestTreeSessionsEvictUnderContention(t *testing.T) {
	oracle := newWindowHost(t)
	oracle.ReuseOff = true
	h := newWindowHost(t)
	h.tree.max = 2
	var scs []fault.Scenario
	for at := sim.Time(3); at < windowHorizon; at += 7 {
		for _, f := range []struct {
			site  string
			model fault.Model
		}{{"toy.reg", fault.StuckAt1}, {"toy.line", fault.StuckAt1}, {"toy.late", fault.Delay}, {"toy.clock", fault.Omission}} {
			name := fmt.Sprintf("%s@%d", f.site, uint64(at))
			scs = append(scs, fault.Scenario{ID: name, Faults: []fault.Descriptor{permanent(name, f.site, f.model, at)}})
		}
	}
	want := make([]fault.Outcome, len(scs))
	for i, sc := range scs {
		want[i] = oracle.RunScenario(sc)
	}
	reg := obs.NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := h.NewTreeSession(TreeConfig{Metrics: reg, Campaign: "contention"})
			defer sess.Close()
			for k := range scs {
				i := k
				if w == 1 {
					i = len(scs) - 1 - k
				}
				fork, ok := h.ForkTime(scs[i])
				if !ok {
					t.Errorf("%s is not fork-eligible", scs[i].ID)
					return
				}
				if got := sess.Run(scs[i], fork); got.Class != want[i].Class || got.Detail != want[i].Detail {
					t.Errorf("session %d, %s: got %s %q, ReuseOff says %s %q", w, scs[i].ID, got.Class, got.Detail, want[i].Class, want[i].Detail)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := h.LiveNodes(); n > 2 {
		t.Errorf("the host retains %d nodes over a budget of 2", n)
	}
	if ev := reg.Counter("campaign.tree_evictions", obs.L("campaign", "contention")).Value(); ev == 0 {
		t.Error("no node was evicted: the walk pins nothing about eviction")
	}
}

// signalInjector serves stuck/short faults on a kernel signal via
// Force/Release — the saboteur pattern. lowVal and highVal are the
// forced values for the 0/1 rails of the signal's value type.
func signalInjector[T comparable](site string, s *sim.Signal[T], lowVal, highVal T) fault.Injector {
	return &fault.FuncInjector{
		SiteName: site,
		Models:   []fault.Model{fault.StuckAt0, fault.StuckAt1, fault.ShortToGround, fault.ShortToSupply},
		InjectFn: func(d fault.Descriptor) error {
			switch d.Model {
			case fault.StuckAt0, fault.ShortToGround:
				s.Force(lowVal)
			case fault.StuckAt1, fault.ShortToSupply:
				s.Force(highVal)
			default:
				return fmt.Errorf("fault: %s on signal site %s", d.Model, site)
			}
			return nil
		},
		RevertFn: func(d fault.Descriptor) error {
			s.Release()
			return nil
		},
	}
}
