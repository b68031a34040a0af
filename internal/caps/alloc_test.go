package caps

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// permanentSweep is the permanent single-fault universe at each of the
// given instants — the shape of the benchmark's caps-perm-sweep, smaller.
// Descriptor names carry the instant so scenario IDs are unique.
func permanentSweep(r *Runner, at ...sim.Time) []fault.Scenario {
	var out []fault.Scenario
	for _, t := range at {
		for _, d := range r.Universe(t) {
			d.Name += fmt.Sprintf("@%v", t)
			out = append(out, fault.Single(d))
		}
	}
	return out
}

// TestWarmSessionRunAllocatesPerRunOnly: a warm tree-session run of a
// permanent sensor fault — 75 fusion cycles with a disturbed sensor, a
// frame sent, arbitrated and delivered in each, a trace hop recorded in
// each — allocates what it returns (the outcome's detail and the
// observation it was classified from: 5 objects) and nothing per cycle.
// Before frames were held by value and the trace site names built once,
// one object per cycle more put it past 80.
func TestWarmSessionRunAllocatesPerRunOnly(t *testing.T) {
	r, err := NewRunner(Protected(), NormalDriving(), sim.MS(80))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var sc fault.Scenario
	for _, d := range r.Universe(sim.MS(5)) {
		if d.Target == "caps.accel0.harness" && d.Model == fault.Open {
			sc = fault.Single(d)
		}
	}
	fork, ok := r.ForkTime(sc)
	if !ok {
		t.Fatalf("no forkable open-harness fault in the universe (got %+v)", sc)
	}
	sess := r.NewTreeSession(stressor.TreeConfig{})
	defer sess.Close()
	var out fault.Outcome
	run := func() { out = sess.Run(sc, fork) }
	run()
	const budget = 8
	avg := testing.AllocsPerRun(20, run)
	t.Logf("%v allocations per warm session run", avg)
	if avg > budget {
		t.Errorf("a warm session run allocates %v objects, budget %d", avg, budget)
	}
	if want := r.RunScenario(sc); out.Class != want.Class || out.Detail != want.Detail {
		t.Errorf("session outcome %v (%s), plain path %v (%s)", out.Class, out.Detail, want.Class, want.Detail)
	}
}

// TestWarmSignedRunAllocatesNoTrace: a warm plain-path signed run — what
// every adaptive proposal costs — allocates the outcome's detail and the
// observation it was classified from, and no copy of the propagation
// trace (~75 hops for a disturbed sensor) that only RunScenarioTraced
// returns; a copy of the trace costs two objects more.
func TestWarmSignedRunAllocatesNoTrace(t *testing.T) {
	r, err := NewRunner(Protected(), NormalDriving(), sim.MS(80))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var sc fault.Scenario
	for _, d := range r.Universe(sim.MS(5)) {
		if d.Target == "caps.accel0.harness" && d.Model == fault.Open {
			sc = fault.Single(d)
		}
	}
	if _, tr := r.RunScenarioTraced(sc); tr.Len() == 0 {
		t.Fatal("the open-harness fault leaves no propagation trace: the pin would be vacuous")
	}
	r.RunScenarioSigned(sc)
	const budget = 5
	avg := testing.AllocsPerRun(20, func() { r.RunScenarioSigned(sc) })
	t.Logf("%v allocations per warm signed run", avg)
	if avg > budget {
		t.Errorf("a warm signed run allocates %v objects, budget %d", avg, budget)
	}
}

// TestCampaignAllocationBudget is the benchmark's allocs_per_scenario
// brought into tier 1: a warm Execute of a journaled two-worker tree
// campaign over the permanent universe at eight instants — runner slots,
// tree nodes and queues warm — stays under a ceiling per scenario. A
// frame, a dispatch or a journal entry that starts costing heap objects
// again fails here, not only in the benchmark. This round reads 7.3 (8.2
// under the race detector); the benchmark, whose 6384-scenario rounds
// spread the per-Execute set-up (two sessions built, the pool started)
// thinner, 6.2. The run shell's closures and guard were 3.4 on top, a
// journal entry encoded from nil 4.7, a frame on the heap one per fusion
// cycle.
func TestCampaignAllocationBudget(t *testing.T) {
	r, err := NewRunner(Protected(), NormalDriving(), sim.MS(80))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	scs := permanentSweep(r, sim.MS(5), sim.MS(15), sim.MS(25), sim.MS(35), sim.MS(45), sim.MS(55), sim.MS(65), sim.MS(75))
	campaign := func() *stressor.Campaign {
		return &stressor.Campaign{
			Name: "alloc-budget", Run: r.RunFunc(), Workers: 2, Checkpointer: r,
		}
	}
	header := campaign().JournalHeader(scs) // hashes the universe: once, as a front-end does
	dir, round := t.TempDir(), 0
	execute := func() {
		round++
		c := campaign()
		w, err := journal.Create(filepath.Join(dir, fmt.Sprint(round)), header)
		if err != nil {
			t.Fatal(err)
		}
		c.Journal = w
		if _, err := c.Execute(scs); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	const ceiling = 10.0
	// AllocsPerRun runs execute once to warm up before it counts.
	per := testing.AllocsPerRun(3, execute) / float64(len(scs))
	t.Logf("%.2f allocations per scenario over %d scenarios", per, len(scs))
	if per > ceiling {
		t.Errorf("%.2f allocations per scenario, ceiling %.0f", per, ceiling)
	}
}
