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
// distinct places. At 1, 2 and 4 workers the campaign must simulate each
// (window, descriptor) pair once and answer the rest from its sessions'
// memos — a count, not a time: no worker count splits a family between
// two sessions — with no injection failing the silence test, and the
// result must be memo-free one-shot runs', outcome for outcome.
func ForkWindowCollapse(t *testing.T, p Prototype, instants []sim.Time, windows int) {
	t.Helper()
	scenarios := denseUniverse(p, instants)
	forks := map[sim.Time]bool{}
	for _, sc := range scenarios {
		fork, _ := p.ForkTime(sc)
		forks[fork] = true
	}
	perInstant := len(scenarios) / len(instants)

	plain, err := (&stressor.Campaign{Name: "plain", Run: p.RunScenario}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if len(forks) != windows {
		t.Errorf("the instants fork at %d distinct windows, want %d", len(forks), windows)
	}
	for _, workers := range []int{1, 2, 4} {
		reg := obs.NewRegistry()
		tree, err := windowCampaign(p, reg, stressor.Shard{}, workers).Execute(scenarios)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tree.Outcomes, plain.Outcomes) {
			t.Errorf("workers=%d: collapsed outcomes diverge from one-shot runs:\ngot:  %+v\nwant: %+v", workers, tree.Outcomes, plain.Outcomes)
		}
		hits, loud := windowCounts(reg)
		simulated := uint64(len(scenarios)) - hits
		if want := uint64(windows * perInstant); simulated != want {
			t.Errorf("workers=%d: simulated %d of %d scenarios, want %d (one per window and descriptor)", workers, simulated, len(scenarios), want)
		}
		if loud != 0 {
			t.Errorf("workers=%d: %d injections failed the silence test; no injector of the prototype schedules anything", workers, loud)
		}
		t.Logf("workers=%d: %d instants, %d windows: %d of %d scenarios simulated", workers, len(instants), len(forks), simulated, len(scenarios))
	}
}

// ShardedForkWindowCollapse is the count sharding costs: the
// ForkWindowCollapse universe at instants, run as shards separate
// one-worker campaigns, must deliver one-shot runs' outcomes and
// together simulate at most one instant's descriptors per cut more than
// one unsharded campaign does — a cut between two instants of one idle
// window simulates that window's descriptors on both sides of it. A
// partition that scatters a window's instants over every shard
// simulates the window once in each. Every shard, run again on two
// workers, must simulate what it did on one: a shard's view keeps the
// plan's families.
func ShardedForkWindowCollapse(t *testing.T, p Prototype, instants []sim.Time, shards int) {
	t.Helper()
	scenarios := denseUniverse(p, instants)
	plain, err := (&stressor.Campaign{Name: "plain", Run: p.RunScenario}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	simulated := func(sh stressor.Shard, workers int) (int, []fault.Outcome) {
		reg := obs.NewRegistry()
		res, err := windowCampaign(p, reg, sh, workers).Execute(scenarios)
		if err != nil {
			t.Fatal(err)
		}
		hits, _ := windowCounts(reg)
		return len(res.Outcomes) - int(hits), res.Outcomes
	}
	whole, _ := simulated(stressor.Shard{}, 1)
	sum, byID := 0, map[string]fault.Outcome{}
	for s := 0; s < shards; s++ {
		n, outs := simulated(stressor.Shard{Index: s, Count: shards}, 1)
		sum += n
		for _, o := range outs {
			byID[o.Scenario.ID] = o
		}
		if n2, outs2 := simulated(stressor.Shard{Index: s, Count: shards}, 2); n2 != n || !reflect.DeepEqual(outs2, outs) {
			t.Errorf("shard %d/%d simulated %d scenarios on two workers, %d on one", s, shards, n2, n)
		}
	}
	for _, want := range plain.Outcomes {
		if got := byID[want.Scenario.ID]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sharded outcome %+v, one-shot run %+v", want.Scenario.ID, got, want)
		}
	}
	if len(byID) != len(plain.Outcomes) {
		t.Errorf("%d shards delivered %d outcomes, want %d", shards, len(byID), len(plain.Outcomes))
	}
	if limit := whole + (shards-1)*len(scenarios)/len(instants); sum > limit {
		t.Errorf("%d shards simulated %d scenarios, one campaign %d: more than the %d its cuts can cost", shards, sum, whole, limit)
	}
	t.Logf("%d of %d scenarios simulated across %d shards, %d unsharded", sum, len(scenarios), shards, whole)
}

// denseUniverse is p's universe at every one of instants, instant after
// instant, each scenario ID made unique by its position.
func denseUniverse(p Prototype, instants []sim.Time) []fault.Scenario {
	var scenarios []fault.Scenario
	for _, at := range instants {
		for _, d := range p.Universe(at) {
			sc := fault.Single(d)
			sc.ID = fmt.Sprintf("%d:%s", len(scenarios), sc.ID)
			scenarios = append(scenarios, sc)
		}
	}
	return scenarios
}

// windowCampaign is the checkpoint-tree campaign on workers workers
// whose sessions' memos the fork-window gates count. Its count is one
// worker's at any worker count, because claim hands each window family
// to one session whole.
func windowCampaign(p Prototype, reg *obs.Registry, sh stressor.Shard, workers int) *stressor.Campaign {
	return &stressor.Campaign{Name: "windows", Workers: workers, Metrics: reg, Shard: sh, Checkpointer: p}
}

// windowCounts reads a windowCampaign's fork-window hit and loud counters.
func windowCounts(reg *obs.Registry) (hits, loud uint64) {
	lbl := obs.L("campaign", "windows")
	return reg.Counter("campaign.fork_window_hits", lbl).Value(), reg.Counter("campaign.fork_window_loud", lbl).Value()
}
