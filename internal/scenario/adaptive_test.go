package scenario

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
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

// pinUniverse is a universe every move applies to: five sites, each
// with a bit-addressed transient, a stuck-at and a parameterized model,
// so retime, remodel, retarget, rebit and reparam all draw.
func pinUniverse() []fault.Descriptor {
	var u []fault.Descriptor
	for i := 0; i < 5; i++ {
		site := "site" + strconv.Itoa(i)
		u = append(u,
			fault.Descriptor{Name: site + "/bit-flip", Model: fault.BitFlip, Class: fault.Transient, Target: site, Bit: 3, Duration: sim.US(5)},
			fault.Descriptor{Name: site + "/stuck-at-0", Model: fault.StuckAt0, Target: site},
			fault.Descriptor{Name: site + "/value-offset", Model: fault.ValueOffset, Target: site, Param: 0.5})
	}
	return u
}

// pinSignature is the fake observer's outcome signature over a
// 1 ms window: a coarse bucket of each fault's content, so novelty is
// frequent early and fades, and the queue drains into the fallback
// path.
func pinSignature(sc fault.Scenario) uint64 {
	sig := uint64(len(sc.Faults))
	for _, d := range sc.Faults {
		sig = sim.MixSignature(sig, uint64(len(d.Target)), uint64(d.Target[len(d.Target)-1]), uint64(d.Model),
			uint64(d.Bit%2), uint64(d.Start/(sim.Millisecond/2)), uint64(min(d.Param, 2)))
	}
	return sig
}

// contentSignature is an observer under which every new fault content
// is a new outcome: the queue stays full.
func contentSignature(sc fault.Scenario) uint64 {
	sig := uint64(len(sc.Faults))
	for _, d := range sc.Faults {
		sig = sim.MixSignature(sig, uint64(d.Model), uint64(d.Bit), uint64(d.Start), math.Float64bits(d.Param))
	}
	return sig
}

// pinLookahead is how far driveLagged's observations lag its
// proposals: the engine's lookahead.
const pinLookahead = 8

// driveLagged runs n the way the engine's canonical schedule does:
// pinLookahead proposals outstanding, outcome i observed just before
// proposal i+pinLookahead, with signature sig. It calls each(sc, fallback) per proposal,
// fallback telling a proposal Next made with its queue empty after
// the universe seeds. The driver itself allocates nothing.
func driveLagged(n *Novelty, sig func(fault.Scenario) uint64, each func(sc fault.Scenario, fallback bool)) {
	var pending [pinLookahead]fault.Scenario
	head, tail := 0, 0 // proposals observed, made
	for {
		fallback := n.seedNext >= len(n.universe) && len(n.queue) == 0
		sc, ok := n.Next()
		if ok {
			each(sc, fallback)
			pending[tail%pinLookahead] = sc
			tail++
		}
		if head == tail {
			return
		}
		if !ok || tail-head == pinLookahead {
			o := pending[head%pinLookahead]
			head++
			n.Observe(fault.Outcome{Scenario: o, Class: fault.Masked, Signature: sig(o)})
		}
	}
}

// noveltyStreamPin is the FNV-64a digest of the 4 500-proposal stream
// of TestNoveltyStreamPinned (every proposal's ID, and each fault's name
// and syntax), recorded before mutants stopped being named when queued:
// the stream must stay byte-identical through any change to how Novelty
// holds its queue, provenance and credit.
const noveltyStreamPin = "b0def2a24ddf21c3"

// TestNoveltyStreamPinned pins the proposal stream of a seeded Novelty
// over every move, fault pairs and the fallback path, against a
// deterministic observer lagging lookahead proposals behind.
func TestNoveltyStreamPinned(t *testing.T) {
	n := NewNovelty(pinUniverse(), 4500, rand.New(rand.NewSource(1)))
	n.Mutator().Window = sim.Millisecond
	h := fnv.New64a()
	var proposals, pairs, fallbacks int
	driveLagged(n, pinSignature, func(sc fault.Scenario, fallback bool) {
		proposals++
		if len(sc.Faults) == 2 {
			pairs++
		}
		if fallback {
			fallbacks++
		}
		io.WriteString(h, sc.ID)
		h.Write([]byte{0})
		for _, d := range sc.Faults {
			io.WriteString(h, d.Name)
			h.Write([]byte{1})
			io.WriteString(h, d.Syntax())
			h.Write([]byte{2})
		}
		h.Write([]byte{'\n'})
	})
	if proposals != 4500 || pairs == 0 || fallbacks == 0 {
		t.Fatalf("%d proposals, %d pairs, %d fallbacks: the pin must cover 4 500 proposals, pairs and the fallback", proposals, pairs, fallbacks)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != noveltyStreamPin {
		t.Fatalf("stream digest %s, pinned %s", got, noveltyStreamPin)
	}
}

// TestNoveltyProposalAllocs pins what a proposal allocates once the
// strategy is warm: its ID, its Faults slice and the name of each
// fault a mutant or pair renames — nothing for the descendants queued
// and never proposed, nor for crediting. The rest (queue, novel pool
// and provenance growth) is amortized over the run.
func TestNoveltyProposalAllocs(t *testing.T) {
	var proposals, named int
	allocs := testing.AllocsPerRun(1, func() {
		n := NewNovelty(pinUniverse(), 4500, rand.New(rand.NewSource(1)))
		n.Mutator().Window = sim.Millisecond
		proposals, named = 0, 0
		driveLagged(n, pinSignature, func(sc fault.Scenario, _ bool) {
			proposals++
			for _, d := range sc.Faults {
				if strings.Contains(d.Name, "~m") || strings.HasSuffix(d.Name, "+0") || strings.HasSuffix(d.Name, "+1") {
					named++
				}
			}
		})
	})
	seeds := len(pinUniverse())
	want := float64(2*(proposals-seeds) + seeds + named) // IDs past the seeds, slices, names
	t.Logf("%.0f allocations over %d proposals (%.2f each), %.0f for IDs, slices and names", allocs, proposals, allocs/float64(proposals), want)
	if allocs > want*1.05 {
		t.Fatalf("%.0f allocations over %d proposals, want at most 5%% over the %.0f their IDs, slices and names take", allocs, proposals, want)
	}
}

// TestMutatorProvenanceBounded: provenance is recorded when a mutant
// is proposed and dropped when it is credited, so it never holds more
// than the proposals not yet observed — not the thousands of
// descendants queued and never proposed.
func TestMutatorProvenanceBounded(t *testing.T) {
	n := NewNovelty(pinUniverse(), 4500, rand.New(rand.NewSource(1)))
	n.Mutator().Window = sim.Millisecond
	most, proposed := 0, 0
	driveLagged(n, contentSignature, func(sc fault.Scenario, _ bool) {
		most = max(most, len(n.mut.prov))
		proposed += len(sc.Faults)
	})
	if most > pinLookahead {
		t.Errorf("provenance held %d mutants, more than the %d proposals outstanding", most, pinLookahead)
	}
	if len(n.mut.prov) != 0 {
		t.Errorf("%d mutants still in provenance after every outcome was observed", len(n.mut.prov))
	}
	if n.mut.serial <= 2*proposed {
		t.Fatalf("%d mutants derived, %d faults proposed: the run must derive far more than it proposes", n.mut.serial, proposed)
	}
}

// TestCreditResolvesProposedMutantsOnly: Credit counts a trial (and a
// win) for a proposed mutant's arm once, and nothing for a name that
// only looks like a mutant's — another parent, a leading zero, a pair
// member, a serial never proposed.
func TestCreditResolvesProposedMutantsOnly(t *testing.T) {
	u := universe(2)
	m := NewMutator(u, rand.New(rand.NewSource(3)))
	m.Window = sim.MS(1)
	mt := m.Mutate(u[0], 1)[0]
	serial := strings.TrimPrefix(mt.Name, u[0].Name+"~m")
	arms := func() (trials, wins int) {
		for i := range m.trials {
			trials, wins = trials+m.trials[i], wins+m.wins[i]
		}
		return trials, wins
	}
	for _, name := range []string{
		u[1].Name + "~m" + serial, u[0].Name + "~m0" + serial, mt.Name + "+0", u[0].Name + "~m99", u[0].Name, "", "~m",
	} {
		m.Credit(name, true)
		if tr, _ := arms(); tr != 0 {
			t.Fatalf("Credit(%q) counted a trial; only %q is a proposed mutant", name, mt.Name)
		}
	}
	m.Credit(mt.Name, true)
	m.Credit(mt.Name, true)
	if tr, w := arms(); tr != 1 || w != 1 {
		t.Fatalf("crediting %q twice counted %d trials and %d wins, want 1 and 1", mt.Name, tr, w)
	}
}
