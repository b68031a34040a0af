package stressortest

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// ForkWindowCollapse is the gate that fails when the fork-window collapse
// rots (DESIGN §14), on a prototype's own dense permanent-fault sweep: its
// universe at every one of instants, which must fork at exactly windows
// distinct places. One worker's session must simulate each (window,
// descriptor) pair once and answer the rest from its memo — a count, not
// a time — with no injection failing the silence test, and the result
// must be the plain path's, outcome for outcome.
func ForkWindowCollapse(t *testing.T, p Prototype, instants []sim.Time, windows int) {
	t.Helper()
	var scenarios []fault.Scenario
	forks := map[sim.Time]bool{}
	for _, at := range instants {
		for _, d := range p.Universe(at) {
			sc := fault.Single(d)
			sc.ID = fmt.Sprintf("%d:%s", len(scenarios), sc.ID)
			scenarios = append(scenarios, sc)
			fork, _ := p.ForkTime(sc)
			forks[fork] = true
		}
	}
	perInstant := len(scenarios) / len(instants)

	plain, err := (&stressor.Campaign{Name: "plain", Run: p.RunFunc()}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tree, err := (&stressor.Campaign{
		Name: "windows", Run: p.RunFunc(), Workers: 1, Metrics: reg,
		Checkpoints: true, Checkpointer: p, CheckpointTree: true,
	}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tree.Outcomes, plain.Outcomes) {
		t.Errorf("collapsed outcomes diverge from the plain path:\ngot:  %+v\nwant: %+v", tree.Outcomes, plain.Outcomes)
	}
	lbl := obs.L("campaign", "windows")
	hits := reg.Counter("campaign.fork_window_hits", lbl).Value()
	loud := reg.Counter("campaign.fork_window_loud", lbl).Value()
	if len(forks) != windows {
		t.Errorf("the instants fork at %d distinct windows, want %d", len(forks), windows)
	}
	simulated := uint64(len(scenarios)) - hits
	if want := uint64(windows * perInstant); simulated != want {
		t.Errorf("simulated %d of %d scenarios, want %d (one per window and descriptor)", simulated, len(scenarios), want)
	}
	if loud != 0 {
		t.Errorf("%d injections failed the silence test; no injector of the prototype schedules anything", loud)
	}
	t.Logf("%d instants, %d windows: %d of %d scenarios simulated", len(instants), len(forks), simulated, len(scenarios))
}
