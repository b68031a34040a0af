package tlm

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// TestStateCoverageMemory is the state-coverage lint on Memory: every
// field is perturbed and must move the digest and survive capture →
// perturb → restore, or is listed with the reason it need not.
func TestStateCoverageMemory(t *testing.T) {
	m := NewMemory("lint", 0x100, 64)
	m.Poke(0x104, []byte{1, 2, 3})
	if err := m.StuckAt(0x110, 2, true); err != nil {
		t.Fatal(err)
	}
	config := "configuration, constant after construction"
	simtest.StateCoverage(t, m, m, map[string]simtest.Rule{
		"name":         simtest.NotState(config),
		"base":         simtest.NotState(config),
		"ReadLatency":  simtest.NotState(config),
		"WriteLatency": simtest.NotState(config),
		"stuckMask": simtest.Via("a map: perturbed the way StuckAt writes it",
			func() { m.stuckMask[0x20] = stuck{mask: 1, value: m.stuckMask[0x20].value ^ 1} }),
	})
}

// TestStateCoverageStuckDefects: the lint perturbs the defect map by
// adding an entry, which the length fold registers on its own. Every
// part of a defect must move the digest as well — its cell, its mask
// and its value — or runs stuck at different cells would pass for one
// state.
func TestStateCoverageStuckDefects(t *testing.T) {
	digest := func(addr uint64, bit uint, value bool) uint64 {
		m := NewMemory("lint", 0x100, 64)
		if err := m.StuckAt(addr, bit, value); err != nil {
			t.Fatal(err)
		}
		return sim.StateSignature(m)
	}
	base := digest(0x110, 2, false)
	for _, c := range []struct {
		part string
		d    uint64
	}{{"cell", digest(0x111, 2, false)}, {"mask", digest(0x110, 3, false)}, {"value", digest(0x110, 2, true)}} {
		if c.d == base {
			t.Errorf("two defects that differ only in their %s digest alike (%#x)", c.part, base)
		}
	}
}
