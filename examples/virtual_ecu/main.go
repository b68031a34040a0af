// Virtual ECU demo: an AE32 program runs on a dual-core lockstep ECU
// under the three classic hardware safety mechanisms — SECDED ECC
// memory, a windowed watchdog, and the lockstep store comparator —
// while SEUs are injected into memory and registers, one scenario
// each. Run with:
//
//	go run ./examples/virtual_ecu
package main

import (
	"fmt"
	"os"

	"repro/internal/ecu"
	"repro/internal/fault"
	"repro/internal/sim"
)

func main() {
	r, err := ecu.NewRunner(ecu.DefaultRunnerConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer r.Close()
	g := ecu.OutputsOf(r.Golden())
	fmt.Printf("golden run:            acc %#x, halted %t/%t\n", g.Acc[0], g.Halted[0], g.Halted[1])

	seus := []struct {
		what string
		want string
		d    fault.Descriptor
	}{
		// SEU #1: flip a bit in an entry of the primary's ECC-protected
		// lookup table that the loop has yet to read — the ECC corrects
		// it transparently on that read.
		{"table bit flip", "detected by ecc", fault.Descriptor{
			Name: "seu-table", Target: "ecu.primary.mem", Address: 0x440, Bit: 3}},
		// SEU #2: flip a register bit in the shadow core mid-run — the
		// lockstep comparator catches the divergence.
		{"shadow register flip", "detected by lockstep", fault.Descriptor{
			Name: "seu-shadow-r3", Target: "ecu.shadow.regs", Address: 3, Bit: 7, Start: sim.US(2)}},
	}
	ok := true
	for _, seu := range seus {
		seu.d.Model, seu.d.Class = fault.BitFlip, fault.Permanent
		out := r.RunScenario(fault.Single(seu.d))
		fmt.Printf("%-22s %s: %s\n", seu.what+":", out.Class, out.Detail)
		ok = ok && out.Class == fault.DetectedSafe && out.Detail == seu.want
	}
	fmt.Println()
	if ok {
		fmt.Println("the mechanisms did their job: ECC corrected the memory SEU and")
		fmt.Println("lockstep caught the register SEU.")
	} else {
		fmt.Println("unexpected mechanism behaviour — inspect the outcomes above.")
	}
}
