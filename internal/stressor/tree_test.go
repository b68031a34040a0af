package stressor

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// tickModel is a minimal prototype: one method process counting unit
// ticks, so the golden state at time t is ticks == t.
type tickModel struct {
	ev    *sim.Event
	ticks int
}

func (m *tickModel) elaborate(k *sim.Kernel) {
	m.ev = k.NewEvent("tick")
	k.MethodNoInit("tick", func() {
		m.ticks++
		m.ev.Notify(1)
	}, m.ev)
	m.ev.Notify(1)
}

func (m *tickModel) SnapshotState(any) any      { return m.ticks }
func (m *tickModel) RestoreState(st any)        { m.ticks = st.(int) }
func (m *tickModel) HashState(h *sim.StateHash) { h.Int(m.ticks) }
func (m *tickModel) at(k *sim.Kernel) [2]int    { return [2]int{int(k.Now()), m.ticks} }

// tickProto is tickModel's Model. A converged run observes what the run
// it joined did.
type tickProto struct{ FinalObservation[*tickModel] }

func (*tickProto) Build(k *sim.Kernel) (*tickModel, *fault.Registry) {
	m := &tickModel{}
	m.elaborate(k)
	return m, fault.NewRegistry()
}

func (*tickProto) Observe(*tickModel) analysis.Observation { return analysis.Observation{} }

func (*tickProto) Golden(*tickModel, analysis.Observation) error { return nil }

// TestTreeCoreBudgetOfOne pins establish's cases and the LRU budget on
// a host that may retain a single node. The same fork is a restore (hit)
// after a run, a later fork extends the golden run from the held node
// and evicts it, an earlier fork rebuilds from the root at time zero and
// evicts the later node in turn — and exactly one node is retained
// throughout. The node is the
// host's, so it outlives Close, and the next session's slot hits it.
func TestTreeCoreBudgetOfOne(t *testing.T) {
	h, err := NewHost[*tickModel, analysis.Observation]("tick", &tickProto{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	h.tree.max = 1
	reg := obs.NewRegistry()
	s := h.NewTreeSession(TreeConfig{Metrics: reg, Campaign: "roll"}).(*session[*tickModel, analysis.Observation])
	s.init()
	k, m := s.sl.k, s.sl.s
	counter := func(name string) uint64 {
		return reg.Counter("campaign.tree_"+name, obs.L("campaign", "roll")).Value()
	}
	type counts struct{ hits, extends, rebuilds, evictions uint64 }
	// dirtyRun plays an injected run: the kernel leaves the golden
	// instant and the model state diverges from it.
	dirtyRun := func() {
		if err := k.RunUntil(k.Now() + 7); err != nil {
			t.Fatal(err)
		}
		m.ticks += 1000
	}
	steps := []struct {
		name  string
		fork  sim.Time
		dirty bool
		want  counts
	}{
		{"first fork simulates the prefix", 10, false, counts{rebuilds: 1}},
		{"same fork after a run: hit", 10, true, counts{hits: 1, rebuilds: 1}},
		{"later fork: extend, old node superseded", 20, true, counts{hits: 1, extends: 1, rebuilds: 1, evictions: 1}},
		{"earlier fork: rebuild from zero, later node superseded", 5, true, counts{hits: 1, extends: 1, rebuilds: 2, evictions: 2}},
	}
	for _, st := range steps {
		if st.dirty {
			dirtyRun()
		}
		if err := s.establish(st.fork); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		golden := int(st.fork) - 1
		if got := m.at(k); got != [2]int{golden, golden} {
			t.Errorf("%s: (now, ticks) = %v, want golden state at %d", st.name, got, golden)
		}
		got := counts{counter("hits"), counter("extends"), counter("rebuilds"), counter("evictions")}
		if got != st.want {
			t.Errorf("%s: counters = %+v, want %+v", st.name, got, st.want)
		}
		if n := h.LiveNodes(); n != 1 {
			t.Errorf("%s: the host retains %d nodes, want 1", st.name, n)
		}
	}
	s.Close()
	if n := h.LiveNodes(); n != 1 {
		t.Errorf("after Close the host retains %d nodes, want 1", n)
	}
	// A second session, on a second slot, forks from the node the first
	// one published.
	held := h.NewTreeSession(TreeConfig{})
	defer held.Close()
	held.(*session[*tickModel, analysis.Observation]).init()
	next := h.NewTreeSession(TreeConfig{Metrics: reg, Campaign: "next"}).(*session[*tickModel, analysis.Observation])
	defer next.Close()
	if err := next.Establish(5); err != nil {
		t.Fatal(err)
	}
	if next.sl.k == k {
		t.Fatal("the second session got the first one's slot, which the held session should have")
	}
	if got := next.sl.s.at(next.sl.k); got != [2]int{4, 4} {
		t.Errorf("second slot: (now, ticks) = %v, want golden state at 4", got)
	}
	l := obs.L("campaign", "next")
	if hits := reg.Counter("campaign.tree_hits", l).Value(); hits != 1 {
		t.Errorf("second session: %d hits, want 1 (the first session's node)", hits)
	}
	if n := reg.Counter("campaign.tree_rebuilds", l).Value(); n != 0 {
		t.Errorf("the second session took its slot back to time zero %d times, want 0", n)
	}
}

// TestForkTimeNeverDeclines: a scenario with no fault, one injecting at
// zero and one injecting past the horizon fork at zero — a one-shot
// session restores the root, publishes no node and comes to the ReuseOff
// outcome — and a ReuseOff host forks every scenario too: its session is
// the rebuild, RunScenarioSigned's outcome exactly, and publishes no
// node and takes no slot from the pool.
func TestForkTimeNeverDeclines(t *testing.T) {
	oracle, h := newWindowHost(t), newWindowHost(t)
	oracle.ReuseOff = true
	sess := oracle.NewTreeSession(TreeConfig{sign: true})
	defer sess.Close()
	mid := fault.Single(permanent("mid", "toy.reg", fault.StuckAt1, 12))
	for _, sc := range []fault.Scenario{
		{ID: "none"},
		fault.Single(permanent("zero", "toy.reg", fault.StuckAt1, 0)),
		fault.Single(permanent("late", "toy.reg", fault.StuckAt1, windowHorizon+1)),
		mid,
	} {
		want := oracle.RunScenarioSigned(sc)
		fork, ok := oracle.ForkTime(sc)
		if !ok {
			t.Errorf("%s: a ReuseOff host declines it", sc.ID)
		}
		if got := sess.Run(sc, fork); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the ReuseOff session says %+v, RunScenarioSigned %+v", sc.ID, got, want)
		}
		if sc.ID == mid.ID {
			continue
		}
		if fork, ok := h.ForkTime(sc); fork != 0 || !ok {
			t.Errorf("%s: ForkTime = %v, %v; want 0, true", sc.ID, fork, ok)
		}
		if got := h.RunScenarioSigned(sc); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %+v, ReuseOff says %+v", sc.ID, got, want)
		}
	}
	if n := h.LiveNodes(); n != 0 {
		t.Errorf("runs forked at zero published %d nodes, want none", n)
	}
	if n := oracle.LiveNodes(); n != 0 {
		t.Errorf("the ReuseOff host published %d nodes, want none", n)
	}
	oracle.mu.Lock()
	built, pooled := oracle.built, len(oracle.slots)
	oracle.mu.Unlock()
	if built != 1 || pooled != 1 {
		t.Errorf("the ReuseOff host built %d slots and pools %d; want its first slot only, in the pool", built, pooled)
	}
}
