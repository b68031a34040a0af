package stressor

import (
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
	m.ticks = 0
	m.ev = k.NewEvent("tick")
	k.MethodNoInit("tick", func() {
		m.ticks++
		m.ev.Notify(1)
	}, m.ev)
	m.ev.Notify(1)
}

func (m *tickModel) SnapshotState() any         { return m.ticks }
func (m *tickModel) RestoreState(st any)        { m.ticks = st.(int) }
func (m *tickModel) HashState(h *sim.StateHash) { h.Int(m.ticks) }
func (m *tickModel) at(k *sim.Kernel) [2]int    { return [2]int{int(k.Now()), m.ticks} }

// tickProto is tickModel's Model. rearms counts the slots returned to
// time zero.
type tickProto struct{ rearms int }

func (*tickProto) Build(k *sim.Kernel) (*tickModel, *fault.Registry) {
	m := &tickModel{}
	m.elaborate(k)
	return m, fault.NewRegistry()
}

func (p *tickProto) Rearm(k *sim.Kernel, m *tickModel) {
	p.rearms++
	m.elaborate(k)
}

func (*tickProto) Observe(*tickModel) analysis.Observation       { return analysis.Observation{} }
func (*tickProto) Golden(*tickModel, analysis.Observation) error { return nil }
func (*tickProto) Record(*struct{}, *tickModel)                  {}
func (*tickProto) Converged(*tickModel, *struct{}, int) analysis.Observation {
	return analysis.Observation{}
}

// TestTreeCoreBudgetOfOne pins establish's cases and the LRU budget on
// a session that may retain a single node. The same fork is a no-op on an
// untouched kernel and a restore (hit) on a dirty one, a later fork
// extends the golden run from the held node and evicts it, an earlier
// fork rebuilds from time zero — and exactly one node is retained
// throughout, which Close returns to the host's pool.
func TestTreeCoreBudgetOfOne(t *testing.T) {
	proto := &tickProto{}
	h, err := NewHost[*tickModel, struct{}]("tick", proto, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	reg := obs.NewRegistry()
	s := h.NewTreeSession(TreeConfig{MaxNodes: 1, Metrics: reg, Campaign: "roll"}).(*session[*tickModel, struct{}])
	if err := s.init(); err != nil {
		t.Fatal(err)
	}
	rearmed := proto.rearms // checking the slot out re-armed it
	k, m := s.sl.k, s.sl.s
	counter := func(name string) uint64 {
		return reg.Counter("campaign.tree_"+name, obs.L("campaign", "roll")).Value()
	}
	type counts struct{ hits, extends, rebuilds, evictions uint64 }
	// dirtyRun plays an injected run: the kernel leaves the golden
	// instant and the model state diverges from it.
	dirtyRun := func() {
		s.dirty = true
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
		{"same fork, untouched kernel: no-op", 10, false, counts{rebuilds: 1}},
		{"same fork after a run: hit", 10, true, counts{hits: 1, rebuilds: 1}},
		{"later fork: extend, old node superseded", 20, true, counts{hits: 1, extends: 1, rebuilds: 1, evictions: 1}},
		{"earlier fork: rebuild from zero", 5, true, counts{hits: 1, extends: 1, rebuilds: 2, evictions: 1}},
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
		if len(s.nodes) != 1 || h.LiveNodes() != 1 {
			t.Errorf("%s: nodes = %d, pool live = %d, want 1 and 1", st.name, len(s.nodes), h.LiveNodes())
		}
	}
	if n := proto.rearms - rearmed; n != 1 {
		t.Errorf("the slot went back to time zero %d times, want 1 (the first prefix starts from the pristine slot)", n)
	}
	s.Close()
	if len(s.nodes) != 0 || h.LiveNodes() != 0 {
		t.Errorf("after Close: nodes = %d, pool live = %d, want 0 and 0", len(s.nodes), h.LiveNodes())
	}
}
