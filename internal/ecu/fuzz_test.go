package ecu

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stressor/stressortest"
)

// ecuEquivalence builds the two runners FuzzScenarioEquivalence shares
// across inputs: the naive rebuild-per-run reference and the runner
// every shortcut (slot reuse, checkpoint tree, early exit of transients,
// paged dirty-tracked memories) runs on.
func ecuEquivalence(tb testing.TB) stressortest.Equivalence {
	tb.Helper()
	cfg := DefaultRunnerConfig()
	rebuild, err := NewRunner(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rebuild.ReuseOff = true
	tb.Cleanup(rebuild.Close)
	reuse, err := NewRunner(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(reuse.Close)
	return stressortest.Equivalence{Name: "ecu-fuzz", Rebuild: rebuild, Reuse: reuse, Horizon: cfg.Horizon}
}

// FuzzScenarioEquivalence asserts, for generated scenarios of one to
// three SEUs, that every engine shortcut classifies exactly as the
// naive rebuild path does (see stressortest.Equivalence.CheckScenario).
// It is the soundness gate of the paged ECC memories: a missed dirty
// bit shows up here as a stale digest (a false early exit) or a stale
// page after a restore (a wrong verdict on the next scenario).
func FuzzScenarioEquivalence(f *testing.F) {
	eq := ecuEquivalence(f)
	universe := eq.Reuse.Universe(0)
	// pick finds a universe entry by site; the seeds then override cell
	// and bit to reach faults the universe itself does not enumerate.
	pick := func(target string) uint16 {
		for i, d := range universe {
			if d.Target == target {
				return uint16(i)
			}
		}
		f.Fatalf("no universe entry at %s", target)
		return 0
	}
	gene := func(target string, addr uint64, bit uint8) stressortest.Gene {
		return stressortest.Gene{Pick: pick(target), Addr: uint16(addr), Bit: bit}
	}
	const (
		pregs, sregs, pc, mem = "ecu.primary.regs", "ecu.shadow.regs", "ecu.primary.pc", "ecu.primary.mem"
		table16               = runnerTableBase + 0x40
		loopAdd               = uint64(runnerEntry) + 4*5 // add r3, r3, r5
	)
	// The workload halts about 4 µs in; the cores park on a quantum
	// sync every ~0.5 µs, which is where an injection lands.
	midLoop, afterHalt := uint64(sim.US(1)), uint64(sim.US(40))
	for _, seed := range []struct {
		at    uint64
		genes []stressortest.Gene
	}{
		// Runaway loops: a high bit of the counter (r1) or of the bound
		// (r2) keeps blt taken until the horizon: thousands of iterations,
		// each logging two lockstep stores per core.
		{midLoop, []stressortest.Gene{gene(pregs, 1, 31)}},
		{midLoop, []stressortest.Gene{gene(pregs, 2, 30)}},
		{midLoop, []stressortest.Gene{gene(sregs, 2, 30)}},
		// Masked: r5 is dead between add and the next lw, which is where
		// every quantum boundary of the loop falls. The permanent flip runs
		// to the horizon; the same flip as a 1 µs transient re-converges
		// and early-exits.
		{midLoop, []stressortest.Gene{gene(pregs, 5, 7)}},
		{midLoop, []stressortest.Gene{{Pick: pick(pregs), Addr: 5, Bit: 7, TransientUS: 1}}},
		// The same flip after the halt stays in the register file: latent.
		{afterHalt, []stressortest.Gene{gene(pregs, 5, 7)}},
		// A stored-codeword flip in a table cell not yet read: the read
		// corrects it and the scrub writes the page back.
		{midLoop, []stressortest.Gene{gene(mem, table16, 5)}},
		{midLoop, []stressortest.Gene{gene(mem, table16, 33)}},
		// Two flips in one codeword: uncorrectable, a bus error traps the core.
		{midLoop, []stressortest.Gene{gene(mem, table16, 5), gene(mem, table16, 9)}},
		// The same cell after the halt is never read again: the flips sit
		// in memory, the page stays dirty against the fork capture.
		{afterHalt, []stressortest.Gene{gene(mem, table16, 5)}},
		{afterHalt, []stressortest.Gene{gene(mem, table16, 5), gene(mem, table16, 9)}},
		// Program text: a single flip is corrected at the next fetch, a
		// double one traps the fetch.
		{midLoop, []stressortest.Gene{gene(mem, loopAdd, 3)}},
		{midLoop, []stressortest.Gene{gene(mem, loopAdd, 3), gene(mem, loopAdd, 20)}},
		// The unmapped half of the array (the bus decodes only 32 KiB):
		// reachable by an upset, never by a read, and in the last page.
		{midLoop, []stressortest.Gene{gene(mem, 0xfffc, 38)}},
		// Around the halt: the golden run's last quantum sync (3.88 µs), the
		// halt itself (4 µs) and two instants of the one idle window after
		// it, from 4 µs to the horizon. CheckScenario's neighbour legs then
		// fork at either edge of a real ECU window.
		{uint64(sim.NS(3880)), []stressortest.Gene{gene(pregs, 5, 7)}},
		{uint64(sim.US(4)), []stressortest.Gene{gene(pregs, 3, 0)}},
		{uint64(sim.US(10)), []stressortest.Gene{gene(mem, table16, 5)}},
		{uint64(sim.US(150)), []stressortest.Gene{gene(sregs, 3, 31)}},
		// Control flow, and three faults spread over both cores and memory
		// with Mutator moves on top.
		{midLoop, []stressortest.Gene{gene(pc, 0, 3)}},
		{uint64(sim.NS(300)), []stressortest.Gene{
			{Pick: pick(pregs), Addr: stressortest.KeepAddr, Bit: stressortest.KeepBit, Moves: 1},
			{Pick: pick(sregs), Addr: stressortest.KeepAddr, Bit: stressortest.KeepBit, AfterNS: 700, Moves: 2},
			{Pick: pick(mem), Addr: uint16(runnerAccAddr), Bit: 0, AfterNS: 1500},
		}},
	} {
		f.Add(seed.at, int64(1), stressortest.EncodeGenes(seed.genes...))
	}
	f.Fuzz(func(t *testing.T, at uint64, seed int64, genes []byte) {
		eq.CheckScenario(t, at, seed, genes)
	})
}

// TestFuzzSeedsCoverTheirCases keeps the seed corpus honest: the faults
// it names must actually produce the behaviours the soundness gate is
// there for — a runaway program with thousands of logged stores, a
// masked flip, an ECC scrub, an uncorrectable trap.
func TestFuzzSeedsCoverTheirCases(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	flip := func(target string, addr uint64, bit uint, at sim.Time) fault.Descriptor {
		return fault.Descriptor{
			Name: "f", Model: fault.BitFlip, Class: fault.Permanent, Domain: fault.DigitalHW,
			Target: target, Address: addr, Bit: bit, Start: at,
		}
	}
	// run classifies the scenario of ds and hands its finished slot to
	// inspect.
	run := func(inspect func(s *ecuSlot), ds ...fault.Descriptor) fault.Classification {
		for i := range ds {
			ds[i].Name = string(rune('a' + i))
		}
		out := r.RunScenarioWith(fault.Scenario{ID: "seed", Faults: ds}, inspect)
		if strings.HasPrefix(out.Detail, "campaign error:") {
			t.Fatal(out.Detail)
		}
		return out.Class
	}
	none := func(*ecuSlot) {}
	at := sim.US(1)

	var stores, corrected, uncorrectable int
	var trapped error
	storesOf := func(s *ecuSlot) { stores, _ = s.ls.Stores() }
	eccOf := func(s *ecuSlot) {
		c, u := s.pram.Stats()
		corrected, uncorrectable, trapped = int(c), int(u), s.pErr
	}
	if class := run(storesOf, flip("ecu.primary.regs", 1, 31, at)); stores < 5000 || class != fault.DetectedSafe {
		t.Errorf("r1 bit 31: %d primary stores, %s — not a detected runaway", stores, class)
	}
	if class := run(storesOf, flip("ecu.primary.regs", 2, 30, at)); stores < 5000 || class != fault.DetectedSafe {
		t.Errorf("r2 bit 30: %d primary stores, %s — not a detected runaway", stores, class)
	}
	if class := run(none, flip("ecu.primary.regs", 5, 7, at)); class != fault.Masked {
		t.Errorf("r5 mid-loop: %s, want masked", class)
	}
	if class := run(eccOf, flip("ecu.primary.mem", runnerTableBase+0x40, 5, at)); corrected != 1 || uncorrectable != 0 || class != fault.DetectedSafe {
		t.Errorf("single codeword flip: corrected=%d uncorrectable=%d %s, want one scrub", corrected, uncorrectable, class)
	}
	run(eccOf, flip("ecu.primary.mem", runnerTableBase+0x40, 5, at), flip("ecu.primary.mem", runnerTableBase+0x40, 9, at))
	if uncorrectable != 1 || trapped == nil {
		t.Errorf("double codeword flip: uncorrectable=%d err=%v, want a trapped load", uncorrectable, trapped)
	}
	run(eccOf, flip("ecu.primary.mem", uint64(runnerEntry)+4*5, 3, at))
	if corrected != 1 {
		t.Errorf("program-text flip: corrected=%d, want the fetch to scrub it", corrected)
	}
}
