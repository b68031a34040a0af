package scenario

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

func TestSignatureIndex(t *testing.T) {
	x := NewSignatureIndex()
	if x.Note(0) {
		t.Error("zero signature must never be novel")
	}
	if !x.Note(7) || x.Note(7) {
		t.Error("first occurrence novel, second not")
	}
	if !x.Note(9) {
		t.Error("distinct signature must be novel")
	}
	if x.Unique() != 2 {
		t.Errorf("Unique = %d, want 2", x.Unique())
	}
}

// TestMutatorStaysOnLattice: every mutant's (target, model) pair must
// exist in the universe — mutation navigates valid combinations, it
// does not invent injectable sites.
func TestMutatorStaysOnLattice(t *testing.T) {
	u := universe(4)
	valid := map[string]bool{}
	for _, d := range u {
		valid[d.Target+"/"+d.Model.String()] = true
	}
	m := NewMutator(u, rand.New(rand.NewSource(5)))
	m.Window = sim.MS(2)
	for _, parent := range u {
		for _, mut := range m.Mutate(parent, 9) {
			if !valid[mut.Target+"/"+mut.Model.String()] {
				t.Fatalf("mutant %s/%s off the universe lattice", mut.Target, mut.Model)
			}
			if mut.Start >= sim.MS(2) {
				t.Fatalf("mutant start %v outside window", mut.Start)
			}
			if mut.Name == parent.Name {
				t.Fatalf("mutant kept parent name %q", mut.Name)
			}
		}
	}
}

func TestMutatorUsesStartsPool(t *testing.T) {
	u := universe(2)
	m := NewMutator(u, rand.New(rand.NewSource(6)))
	m.Starts = []sim.Time{sim.US(3), sim.US(17)}
	ok := map[sim.Time]bool{sim.US(3): true, sim.US(17): true}
	for _, mut := range m.Mutate(u[0], 12) {
		if !ok[mut.Start] {
			t.Fatalf("mutant start %v not drawn from the Starts pool", mut.Start)
		}
	}
}

// driveNovelty runs a Novelty strategy against a synthetic run
// function whose signature is a content hash — deterministic feedback.
func driveNovelty(n *Novelty) []fault.Scenario {
	var out []fault.Scenario
	for {
		sc, ok := n.Next()
		if !ok {
			return out
		}
		out = append(out, sc)
		sig := uint64(0)
		for _, d := range sc.Faults {
			sig = sim.MixSignature(sig, uint64(len(d.Target)), uint64(d.Model), uint64(d.Start))
		}
		n.Observe(fault.Outcome{Scenario: sc, Class: fault.Masked, Signature: sig})
	}
}

func TestNoveltySeedsUniverseFirstThenBudget(t *testing.T) {
	u := universe(3)
	budget := len(u) + 10
	n := NewNovelty(u, budget, rand.New(rand.NewSource(7)))
	n.Mutator().Window = sim.MS(1)
	got := driveNovelty(n)
	if len(got) != budget {
		t.Fatalf("produced %d, want budget %d", len(got), budget)
	}
	for i, d := range u {
		if got[i].ID != d.Name {
			t.Errorf("proposal %d = %s, want universe seed %s", i, got[i].ID, d.Name)
		}
	}
	if _, ok := n.Next(); ok {
		t.Fatal("Next after budget must return false")
	}
}

func TestNoveltyDeterministicPerSeed(t *testing.T) {
	u := universe(4)
	mk := func() []fault.Scenario {
		n := NewNovelty(u, 40, rand.New(rand.NewSource(11)))
		n.Mutator().Window = sim.MS(1)
		return driveNovelty(n)
	}
	if !reflect.DeepEqual(mk(), mk()) {
		t.Fatal("same seed must yield an identical scenario stream")
	}
}

// TestNoveltyFallbackWithoutFeedback: when no run ever reports a
// signature (plain RunFuncs), the stream must still fill the budget —
// pipeline lag or missing signatures must not stall the campaign.
func TestNoveltyFallbackWithoutFeedback(t *testing.T) {
	u := universe(2)
	budget := len(u) + 8
	n := NewNovelty(u, budget, rand.New(rand.NewSource(12)))
	n.Mutator().Window = sim.MS(1)
	count := 0
	for {
		sc, ok := n.Next()
		if !ok {
			break
		}
		count++
		n.Observe(fault.Outcome{Scenario: sc, Class: fault.Masked}) // Signature 0
	}
	if count != budget {
		t.Fatalf("produced %d, want %d", count, budget)
	}
}

// TestNoveltyPairEscalation: with every outcome novel, the strategy
// must escalate to dual-fault scenarios beyond the universe.
func TestNoveltyPairEscalation(t *testing.T) {
	u := universe(3)
	n := NewNovelty(u, len(u)+20, rand.New(rand.NewSource(13)))
	n.Mutator().Window = sim.MS(1)
	pairs := 0
	for _, sc := range driveNovelty(n) {
		if len(sc.Faults) == 2 {
			pairs++
			if err := sc.Validate(); err != nil {
				t.Fatalf("pair scenario invalid: %v", err)
			}
		}
	}
	if pairs == 0 {
		t.Fatal("novel outcomes never escalated to fault pairs")
	}
}

func TestStartsFromCorpus(t *testing.T) {
	w := sim.Time(100)
	got := StartsFromCorpus([][]int64{{5, 205}, {-7, 5}}, w)
	// mx = 205, so v scales to w*v/206: 5→2, 7→3, 205→99.
	want := []sim.Time{2, 3, 99}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("starts = %v, want %v (deduped, sorted, scaled over window)", got, want)
	}
	if StartsFromCorpus([][]int64{{1}}, 0) != nil {
		t.Error("zero window must yield no starts")
	}
}
