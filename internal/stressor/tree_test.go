package stressor

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// tickModel is a minimal Snapshottable prototype: one method process
// counting unit ticks, so the golden state at time t is ticks == t.
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

func (m *tickModel) SnapshotState() any      { return m.ticks }
func (m *tickModel) RestoreState(st any)     { m.ticks = st.(int) }
func (m *tickModel) at(k *sim.Kernel) [2]int { return [2]int{int(k.Now()), m.ticks} }

// TestTreeCoreBudgetOfOne pins Establish's cases and the LRU budget on
// a core that may retain a single node. The same fork is a no-op on an
// untouched kernel and a restore (hit) on a dirty one, a later fork
// extends the golden run from the held node and evicts it, an earlier
// fork rebuilds from time zero — and exactly one node is retained
// throughout, which Recycle (the session's Close) returns to the pool.
func TestTreeCoreBudgetOfOne(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	m := &tickModel{}
	m.elaborate(k)
	reg := obs.NewRegistry()
	var pool NodePool
	rebuilt := 0
	core := TreeCore{
		Cfg: TreeConfig{MaxNodes: 1, Metrics: reg, Campaign: "roll"},
		K:   k, Model: m, Pool: &pool,
		Rebuild: func() {
			rebuilt++
			k.Reset()
			m.elaborate(k)
		},
	}
	core.Init()
	counter := func(name string) uint64 {
		return reg.Counter("campaign.tree_"+name, obs.L("campaign", "roll")).Value()
	}
	type counts struct{ hits, extends, rebuilds, evictions uint64 }
	// dirtyRun plays an injected run: the kernel leaves the golden
	// instant and the model state diverges from it.
	dirtyRun := func() {
		core.MarkDirty()
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
		if err := core.Establish(st.fork); err != nil {
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
		if core.Nodes() != 1 || pool.Live() != 1 {
			t.Errorf("%s: nodes = %d, pool live = %d, want 1 and 1", st.name, core.Nodes(), pool.Live())
		}
	}
	if rebuilt != 1 {
		t.Errorf("Rebuild ran %d times, want 1 (the first prefix starts from the fresh kernel)", rebuilt)
	}
	core.Recycle()
	if core.Nodes() != 0 || pool.Live() != 0 {
		t.Errorf("after Recycle: nodes = %d, pool live = %d, want 0 and 0", core.Nodes(), pool.Live())
	}
}
