package ecu

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestHashStateDigestSeesOneBitFlips is the digest's guarantee (DESIGN
// §14) on the ECU slot mid-run, as a seeded property: a register, the
// program counter, a watchdog counter and an ECC codeword cell are each
// one folded word — a cell through its PagedState page digest, whose
// one-word change survives the page's position mix and the wrapping sum
// — so flipping any one bit of one changes the slot's HashState digest,
// and flipping it back restores it.
func TestHashStateDigestSeesOneBitFlips(t *testing.T) {
	s := midRunSlot(t)
	rng := rand.New(rand.NewSource(52))
	type field struct {
		name string
		bits int
		flip func(bit uint)
	}
	fields := []field{
		{"primary.pc", 32, func(b uint) { s.primary.pc ^= 1 << b }},
		{"wd.timeouts", 64, func(b uint) { s.wd.timeouts ^= 1 << b }},
		{"wd.kicks", 64, func(b uint) { s.wd.kicks ^= 1 << b }},
	}
	for _, c := range []*CPU{s.primary, s.shadow} {
		r := 1 + rng.Intn(len(c.regs)-1)
		fields = append(fields, field{fmt.Sprintf("%s.regs[%d]", c.name, r), 32, func(b uint) { c.regs[r] ^= 1 << b }})
	}
	for _, m := range []*ECCMemory{s.pram, s.sram} {
		for _, cell := range []int{0, rng.Intn(m.mem.Len()), m.mem.Len() - 1} {
			fields = append(fields, field{fmt.Sprintf("%#x cell %d", m.base, cell), 39, func(b uint) {
				m.mem.Store(cell, m.mem.Load(cell)^1<<b)
			}})
		}
	}
	h := sim.NewStateHash()
	digest := func() uint64 {
		h.Reset()
		s.HashState(&h)
		return h.Sum()
	}
	for _, f := range fields {
		for trial := 0; trial < 32; trial++ {
			bit := uint(rng.Intn(f.bits))
			before := digest()
			f.flip(bit)
			if digest() == before {
				t.Errorf("%s: flipping bit %d leaves the digest %#x", f.name, bit, before)
			}
			f.flip(bit)
			if after := digest(); after != before {
				t.Fatalf("%s: flipping bit %d back gives %#x, want %#x", f.name, bit, after, before)
			}
		}
	}
}
