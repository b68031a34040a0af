package stressortest

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// Scenario-equivalence checking on generated scenarios. The matrix in
// this package proves every engine shortcut byte-identical on a fixed,
// listed universe; the check here proves it on one generated scenario
// of one to three faults, which is what a fuzz target can feed. It is
// the gate for shortcuts whose soundness rests on hand-maintained state
// coverage (dirty bits, hashed-field lists): a miss there is a wrong
// verdict on some scenario nobody listed.

// Prototype is what the checks of this package need of a runner;
// caps.Runner and ecu.Runner both provide it. Universe must enumerate
// the same sites at every instant, as both do.
type Prototype interface {
	stressor.Checkpointer
	RunScenario(sc fault.Scenario) fault.Outcome
	RunScenarioSigned(sc fault.Scenario) fault.Outcome
	Universe(start sim.Time) []fault.Descriptor
}

// Equivalence binds the check to one prototype. The two runners are
// built once per test process and shared by every generated scenario,
// so pooled slots, the node pool and the golden trajectories carry
// over from one input to the next, as they do on a warm daemon runner.
type Equivalence struct {
	// Name labels the campaigns.
	Name string
	// Rebuild is the naive reference: the runner with ReuseOff set.
	Rebuild Prototype
	// Reuse is the runner every shortcut runs on.
	Reuse Prototype
	// Horizon is the runners' simulated time budget.
	Horizon sim.Time
}

// Gene describes one generated fault: a pick from the runner's
// universe at the scenario instant, perturbed by Mutator moves, then
// overridden field by field. Seed corpora spell out exact faults with
// the overrides; the fuzzer mutates all of it.
type Gene struct {
	// Pick indexes Universe(at), modulo its length.
	Pick uint16
	// AfterNS delays the fault's start past the scenario instant.
	AfterNS uint16
	// Addr replaces Descriptor.Address unless it is KeepAddr.
	Addr uint16
	// Bit replaces Descriptor.Bit (modulo 64) unless it is KeepBit.
	Bit uint8
	// Moves is how many scenario.Mutator moves to apply (low two bits).
	Moves uint8
	// TransientUS, when non-zero, makes the fault transient with that
	// active window in microseconds.
	TransientUS uint16
}

// Override sentinels of Gene.
const (
	KeepAddr = 0xffff
	KeepBit  = 0xff
)

const geneBytes = 10

// EncodeGenes packs genes into the byte form a fuzz corpus carries.
func EncodeGenes(genes ...Gene) []byte {
	out := make([]byte, 0, geneBytes*len(genes))
	for _, g := range genes {
		out = binary.LittleEndian.AppendUint16(out, g.Pick)
		out = binary.LittleEndian.AppendUint16(out, g.AfterNS)
		out = binary.LittleEndian.AppendUint16(out, g.Addr)
		out = append(out, g.Bit, g.Moves)
		out = binary.LittleEndian.AppendUint16(out, g.TransientUS)
	}
	return out
}

// decodeGenes unpacks one to three genes; missing bytes read as zero,
// so every input yields a scenario.
func decodeGenes(b []byte) []Gene {
	n := len(b) / geneBytes
	if n < 1 {
		n = 1
	}
	if n > 3 {
		n = 3
	}
	buf := make([]byte, n*geneBytes)
	copy(buf, b)
	genes := make([]Gene, n)
	for i := range genes {
		g := buf[i*geneBytes:]
		genes[i] = Gene{
			Pick:        binary.LittleEndian.Uint16(g),
			AfterNS:     binary.LittleEndian.Uint16(g[2:]),
			Addr:        binary.LittleEndian.Uint16(g[4:]),
			Bit:         g[6],
			Moves:       g[7],
			TransientUS: binary.LittleEndian.Uint16(g[8:]),
		}
	}
	return genes
}

// generate builds the scenario under test: one fault per gene. ok is
// false when the universe is empty at that instant or a generated
// descriptor is structurally invalid.
func (eq Equivalence) generate(at sim.Time, seed int64, genes []Gene) (fault.Scenario, bool) {
	universe := eq.Reuse.Universe(at)
	if len(universe) == 0 {
		return fault.Scenario{}, false
	}
	mut := scenario.NewMutator(universe, rand.New(rand.NewSource(seed)))
	mut.Window = eq.Horizon
	sc := fault.Scenario{ID: "generated"}
	for i, g := range genes {
		d := universe[int(g.Pick)%len(universe)]
		for m := 0; m < int(g.Moves&3); m++ {
			if next := mut.Mutate(d, 1); len(next) == 1 {
				d = next[0]
			}
		}
		d.Start += sim.NS(uint64(g.AfterNS))
		if g.Addr != KeepAddr {
			d.Address = uint64(g.Addr)
		}
		if g.Bit != KeepBit {
			d.Bit = uint(g.Bit) % 64
		}
		if g.TransientUS != 0 {
			d.Class, d.Duration = fault.Transient, sim.US(uint64(g.TransientUS))
		}
		d.Name = fmt.Sprintf("g%d", i)
		if d.Validate() != nil {
			return fault.Scenario{}, false
		}
		sc.Faults = append(sc.Faults, d)
	}
	return sc, true
}

// underTest is where campaignAround puts the generated scenario.
const underTest = 3

// campaignAround surrounds sc with universe scenarios that fork
// earlier, later, in between and at the very same instant, and with a
// second copy of sc itself, in an order whose fork times rise and fall.
// Run in index order against a small node budget this produces every
// kind of restore: from the capture the slot was just forked from,
// from an older capture, and into node buffers that were evicted and
// refilled in between.
func (eq Equivalence) campaignAround(sc fault.Scenario, seed int64) []fault.Scenario {
	fork := stressor.ForkTime(sc)
	rng := rand.New(rand.NewSource(seed))
	again := fault.Scenario{Faults: sc.Faults}
	single := func(at sim.Time) fault.Scenario {
		u := eq.Reuse.Universe(at)
		return fault.Single(u[rng.Intn(len(u))])
	}
	out := []fault.Scenario{
		single(fork / 2),
		single(fork + (eq.Horizon-fork)/2),
		single(fork - fork/4),
		sc,
		single(fork),
		single(fork / 3),
		again,
		single(fork + (eq.Horizon-fork)/3),
	}
	for i := range out {
		out[i].ID = fmt.Sprintf("%d:%s", i, out[i].ID)
	}
	return out
}

// windowNeighbours returns, for a scenario of one permanent fault, sc
// itself and copies of it shifted to the instants where a fork window
// (a tree session's window memo) could go wrong: the first and last instant
// of the idle window sc injects in, the golden activity instants a and b
// that bound it, and the first instant past b. The window is read off
// the runner's own ForkTime — a+1 for every Start in (a, b] — so a
// runner that does not collapse windows (fork = Start) yields the
// instants just around Start. Anything else yields nil.
func (eq Equivalence) windowNeighbours(sc fault.Scenario) []fault.Scenario {
	if len(sc.Faults) != 1 || sc.Faults[0].Class != fault.Permanent {
		return nil
	}
	start := sc.Faults[0].Start
	shifted := func(at sim.Time) fault.Scenario {
		d := sc.Faults[0]
		d.Start, d.Name = at, fmt.Sprintf("%s@%d", d.Name, uint64(at))
		return fault.Scenario{ID: fmt.Sprintf("%s@%d", sc.ID, uint64(at)), Faults: []fault.Descriptor{d}}
	}
	fork, _ := eq.Reuse.ForkTime(sc)
	a := fork - 1
	// ForkTime never falls as Start rises: b is the last Start that still
	// forks where sc does.
	b := start + sim.Time(sort.Search(int(eq.Horizon-start), func(i int) bool {
		f, _ := eq.Reuse.ForkTime(shifted(start + 1 + sim.Time(i)))
		return f != fork
	}))
	out := []fault.Scenario{sc}
	seen := map[sim.Time]bool{start: true}
	for _, at := range []sim.Time{a + 1, b - 1, b + 1, a, b} {
		if at > 0 && at <= eq.Horizon && !seen[at] {
			seen[at] = true
			out = append(out, shifted(at))
		}
	}
	return out
}

// checkForkWindow asserts that sc and its window neighbours classify on
// the tree, on one worker session and on two, as the rebuild path does:
// class, detail and signature of every one.
func (eq Equivalence) checkForkWindow(t *testing.T, sc fault.Scenario) {
	t.Helper()
	scenarios := eq.windowNeighbours(sc)
	if scenarios == nil {
		return
	}
	ref, err := (&stressor.Campaign{Name: eq.Name, Run: eq.Rebuild.RunScenario}).Execute(scenarios)
	if err != nil {
		t.Fatalf("fork-window reference campaign: %v", err)
	}
	for _, workers := range []int{1, 2} {
		got, err := (&stressor.Campaign{
			Name: eq.Name, Workers: workers, Checkpointer: eq.Reuse,
		}).Execute(scenarios)
		if err != nil {
			t.Fatalf("fork-window campaign: %v", err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("fork window (%d workers) diverged from rebuild on %+v\ngot:  %+v\nwant: %+v",
				workers, sc.Faults, got.Outcomes, ref.Outcomes)
		}
	}
}

// modeNamed looks a matrix cell mode up by its name.
func modeNamed(name string) cellMode {
	for _, m := range cellModes {
		if m.name == name {
			return m
		}
	}
	panic("stressortest: no cell mode named " + name)
}

// CheckScenario generates one scenario from (at, seed, genes) and
// asserts that class, detail and signature agree across rebuild ≡ reuse
// ≡ tree ≡ 2-shard merged ≡ interrupted-and-resumed,
// then drives two interleaved tree sessions
// over the same scenarios in index order — forks rising and falling,
// each restoring nodes the other's slot took — and the signed calls on
// both runners, the reuse one also as a tree campaign over a Source. A
// scenario of one permanent fault is also run at the edges of the golden
// idle window it injects in (checkForkWindow). Inputs that generate
// nothing runnable, or a fault the prototype's registry rejects, are
// skipped, not failed.
func (eq Equivalence) CheckScenario(t *testing.T, at uint64, seed int64, genes []byte) {
	t.Helper()
	sc, ok := eq.generate(sim.Time(at%uint64(eq.Horizon)), seed, decodeGenes(genes))
	if !ok {
		t.Skip("input generates no valid scenario")
	}
	scenarios := eq.campaignAround(sc, seed)
	cfg := Config{Name: eq.Name, Scenarios: scenarios, InterruptAfter: 3}

	ref, err := (&stressor.Campaign{Name: eq.Name, Run: eq.Rebuild.RunScenario}).Execute(scenarios)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	if strings.HasPrefix(ref.Outcomes[underTest].Detail, "campaign error:") {
		t.Skipf("the registry rejects the generated scenario: %s", ref.Outcomes[underTest].Detail)
	}

	for _, cell := range []struct {
		name, mode string
		shards     int
		resumed    bool
	}{
		{"reuse", "plain", 1, false},
		{"tree", "tree", 1, false},
		{"2-shard merged", "tree", 2, false},
		{"interrupted and resumed", "tree", 1, true},
	} {
		got := executeCell(t, cfg, eq.Reuse, modeNamed(cell.mode), 0, cell.shards, cell.resumed)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s diverged from rebuild on %+v\ngot:  %+v\nwant: %+v", cell.name, sc.Faults, got.Outcomes, ref.Outcomes)
		}
	}

	eq.checkForkWindow(t, sc)

	// Two sessions of one runner, stepped alternately: a walks the
	// campaign forwards, b backwards, so each restores into its own slot
	// nodes the other's slot published, in both walk directions.
	a, b := eq.Reuse.NewTreeSession(stressor.TreeConfig{}), eq.Reuse.NewTreeSession(stressor.TreeConfig{})
	defer a.Close()
	defer b.Close()
	n := len(scenarios)
	for i := 0; i < n; i++ {
		for _, step := range []struct {
			sess stressor.CheckpointSession
			idx  int
		}{{a, i}, {b, n - 1 - i}} {
			s := scenarios[step.idx]
			fork, _ := eq.Reuse.ForkTime(s)
			got, want := step.sess.Run(s, fork), ref.Outcomes[step.idx]
			if got.Class != want.Class || got.Detail != want.Detail || got.Signature != want.Signature {
				t.Errorf("tree session, scenario %s forked at %s out of order: got %s %q sig %#x, rebuild says %s %q sig %#x",
					s.ID, fork, got.Class, got.Detail, got.Signature, want.Class, want.Detail, want.Signature)
			}
		}
	}

	// A signed run digests final state; rebuild hashes a fresh slot from
	// scratch, reuse a pooled one incrementally — called directly, and on
	// the signing sessions the engine runs when the same list arrives
	// through a Source.
	src := listSource(scenarios)
	sourced, err := (&stressor.Campaign{
		Name: eq.Name, Source: &src, Workers: 2, Checkpointer: eq.Reuse,
	}).Execute(nil)
	if err != nil {
		t.Fatalf("campaign over a source: %v", err)
	}
	rebuild, reuse := eq.Rebuild.RunScenarioSigned, eq.Reuse.RunScenarioSigned
	for i, s := range scenarios {
		want := rebuild(s)
		for path, got := range map[string]fault.Outcome{"reuse": reuse(s), "reuse through a Source": sourced.Outcomes[i]} {
			if got.Scenario.ID != s.ID || got.Class != want.Class || got.Detail != want.Detail || got.Signature != want.Signature {
				t.Errorf("signed run of %s: %s says %s %s %q sig %#x, rebuild says %s %q sig %#x",
					s.ID, path, got.Scenario.ID, got.Class, got.Detail, got.Signature, want.Class, want.Detail, want.Signature)
			}
		}
		if want.Class != ref.Outcomes[i].Class || want.Detail != ref.Outcomes[i].Detail {
			t.Errorf("signed run of %s classifies %s %q, unsigned %s %q",
				s.ID, want.Class, want.Detail, ref.Outcomes[i].Class, ref.Outcomes[i].Detail)
		}
	}
}

// listSource proposes a fixed list and learns nothing from it.
type listSource []fault.Scenario

func (l *listSource) Next() (sc fault.Scenario, ok bool) {
	if ok = len(*l) > 0; ok {
		sc, *l = (*l)[0], (*l)[1:]
	}
	return sc, ok
}

func (*listSource) Observe(fault.Outcome) {}
