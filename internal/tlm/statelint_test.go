package tlm

import (
	"testing"

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
		"AllowDMI":     simtest.NotState(config),
		"stuckMask": simtest.Via("a map: perturbed the way StuckAt writes it",
			func() { m.stuckMask[0x20] = stuck{mask: 1, value: m.stuckMask[0x20].value ^ 1} }),
	})
}
