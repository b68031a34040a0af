package stressortest

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/stressor"
)

// CheckRoot asserts that a slot rewound to its host's root checkpoint
// runs as a freshly built prototype does — the root stands in for Build
// on every run but a slot's first. reuse and rebuild are the signed run
// paths of a pooled runner and of its ReuseOff twin. Nothing else may use
// the pooled runner meanwhile, so its runs, one after another, all take
// one slot. Each scenario of universe runs there right after a different
// faulty one, and its outcome — class, detail and signature, which
// digests the final state — must equal rebuild's.
func CheckRoot(t *testing.T, rebuild, reuse stressor.RunFunc, universe []fault.Scenario) {
	t.Helper()
	if len(universe) < 2 {
		t.Fatal("stressortest: CheckRoot needs two scenarios or more")
	}
	for i, sc := range universe {
		before := universe[(i+1)%len(universe)]
		if len(before.Faults) == 0 {
			t.Fatalf("stressortest: CheckRoot runs %s first, and it injects nothing", before.ID)
		}
		reuse(before)
		got, want := reuse(sc), rebuild(sc)
		if got.Class != want.Class || got.Detail != want.Detail || got.Signature != want.Signature {
			t.Errorf("%s right after %s: the rewound slot says %s %q sig %#x, a fresh build %s %q sig %#x",
				sc.ID, before.ID, got.Class, got.Detail, got.Signature, want.Class, want.Detail, want.Signature)
		}
	}
}
