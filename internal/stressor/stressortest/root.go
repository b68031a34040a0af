package stressortest

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// CheckRoot asserts that a pooled run — which restores its host's
// deepest golden node at or before the scenario's fork, or the root when
// there is none or the fork is zero — runs as a freshly built prototype
// does. reuse and rebuild are the signed run paths of a pooled runner and
// of its ReuseOff twin, both with the given horizon. Nothing else may use
// the pooled runner meanwhile, so its runs, one after another, all take
// one slot. Each scenario of universe, the three a pooled run forks at
// zero — no fault, and universe's first fault injected at zero and past
// any horizon — and that fault injected exactly at the horizon, the last
// instant that still forks through the tree, runs there right after a
// different faulty one, and its outcome — class, detail and signature,
// which digests the final state — must equal rebuild's.
func CheckRoot(t *testing.T, rebuild, reuse stressor.RunFunc, universe []fault.Scenario, horizon sim.Time) {
	t.Helper()
	if len(universe) < 2 {
		t.Fatal("stressortest: CheckRoot needs two scenarios or more")
	}
	edges := []fault.Scenario{{ID: "no-fault"}}
	for _, start := range []sim.Time{0, 1 << 62, horizon} {
		d := universe[0].Faults[0]
		d.Name, d.Start = d.Name+"@"+start.String(), start
		edges = append(edges, fault.Single(d))
	}
	for i, sc := range append(universe[:len(universe):len(universe)], edges...) {
		before := universe[(i+1)%len(universe)]
		if len(before.Faults) == 0 {
			t.Fatalf("stressortest: CheckRoot runs %s first, and it injects nothing", before.ID)
		}
		reuse(before)
		got, want := reuse(sc), rebuild(sc)
		if got.Class != want.Class || got.Detail != want.Detail || got.Signature != want.Signature {
			t.Errorf("%s right after %s: the pooled slot says %s %q sig %#x, a fresh build %s %q sig %#x",
				sc.ID, before.ID, got.Class, got.Detail, got.Signature, want.Class, want.Detail, want.Signature)
		}
	}
}
