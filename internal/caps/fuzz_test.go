package caps

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stressor/stressortest"
)

// FuzzScenarioEquivalence asserts, for generated scenarios of one to
// three faults on the CAPS prototype, that every engine shortcut —
// slot reuse, the checkpoint tree and small-budget tree sessions, fork windows,
// convergence early-exit with its spliced observation, shard merge,
// resume — classifies exactly as the naive rebuild path does (see
// stressortest.Equivalence.CheckScenario).
func FuzzScenarioEquivalence(f *testing.F) {
	const horizon = 30 * sim.Millisecond
	rebuild, err := NewRunner(Protected(), NormalDriving(), horizon)
	if err != nil {
		f.Fatal(err)
	}
	rebuild.ReuseOff = true
	f.Cleanup(rebuild.Close)
	reuse, err := NewRunner(Protected(), NormalDriving(), horizon)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(reuse.Close)
	eq := stressortest.Equivalence{Name: "caps-fuzz", Rebuild: rebuild, Reuse: reuse, Horizon: horizon}

	keep := stressortest.Gene{Addr: stressortest.KeepAddr, Bit: stressortest.KeepBit}
	gene := func(pick int, edit func(*stressortest.Gene)) stressortest.Gene {
		g := keep
		g.Pick = uint16(pick)
		if edit != nil {
			edit(&g)
		}
		return g
	}
	transient := func(us uint16) func(*stressortest.Gene) {
		return func(g *stressortest.Gene) { g.TransientUS = us }
	}
	n := len(reuse.Universe(0))
	at := uint64(5 * sim.Millisecond)
	// Every universe entry once as a permanent fault and once as a 2 ms
	// transient — the pulses that decay are the ones early-exit stops.
	for i := 0; i < n; i++ {
		f.Add(at, int64(i), stressortest.EncodeGenes(gene(i, nil)))
		f.Add(at, int64(i), stressortest.EncodeGenes(gene(i, transient(2000))))
	}
	// Two- and three-fault scenarios: overlapping pulses on different
	// sites, a permanent fault under a pulse, Mutator moves on top.
	f.Add(at, int64(1), stressortest.EncodeGenes(gene(0, transient(1500)), gene(n/2, transient(3000))))
	f.Add(at, int64(2), stressortest.EncodeGenes(gene(1, nil), gene(n-1, transient(2000))))
	f.Add(uint64(12*sim.Millisecond), int64(3), stressortest.EncodeGenes(
		gene(2, func(g *stressortest.Gene) { g.Moves = 1 }),
		gene(n/3, func(g *stressortest.Gene) { g.Moves = 2; g.TransientUS = 800 }),
		gene(n-2, func(g *stressortest.Gene) { g.AfterNS = 40_000 }),
	))
	// Fork windows: every universe entry as a permanent fault in the middle
	// of a golden idle window (the bus is quiet from a frame's completion,
	// ~0.1 ms into the cycle, to the next cycle), and the bus faults between
	// a cycle and its frame's completion — the window a bucket per fusion
	// period would wrongly merge with the one after it.
	for i, d := range reuse.Universe(0) {
		f.Add(uint64(5*sim.Millisecond+300*sim.Microsecond), int64(i), stressortest.EncodeGenes(gene(i, nil)))
		if d.Target == "caps.can.bus" {
			f.Add(uint64(5*sim.Millisecond+50*sim.Microsecond), int64(i), stressortest.EncodeGenes(gene(i, nil)))
		}
	}
	f.Fuzz(func(t *testing.T, at uint64, seed int64, genes []byte) {
		eq.CheckScenario(t, at, seed, genes)
	})
}
