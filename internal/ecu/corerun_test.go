package ecu

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/tlm"
)

// coreOutcome is what one run of a core loop leaves behind: every store
// with the kernel instant it was issued at, the core's final state, the
// instant the loop completed and its error.
type coreOutcome struct {
	stores []string
	instrs uint64
	halted bool
	pc     uint32
	doneAt sim.Time
	err    string
}

// runCore runs program on a fresh core through one of the two loop
// forms: CPU.Run on a thread with a quantum keeper, or coreRunner as a
// method process.
func runCore(t *testing.T, program string, quantum sim.Time, bound uint64, method bool) coreOutcome {
	t.Helper()
	k, cpu, _ := buildSystem(t, program)
	defer k.Shutdown()
	var out coreOutcome
	cpu.StoreHook = func(addr, val uint32) {
		out.stores = append(out.stores, fmt.Sprintf("%s %#x=%#x", k.Now(), addr, val))
	}
	done := func(err error) {
		out.instrs, out.halted, out.pc, out.doneAt = cpu.Instructions(), cpu.Halted(), cpu.PC(), k.Now()
		if err != nil {
			out.err = err.Error()
		}
	}
	if method {
		(&coreRunner{cpu: cpu, quantum: quantum, maxInstrs: bound, name: "cpu0.run", onDone: done}).elaborate(k)
	} else {
		k.Thread("cpu0.run", func(ctx *sim.ThreadCtx) {
			done(cpu.Run(ctx, tlm.NewQuantumKeeper(ctx, quantum), bound))
		})
	}
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCoreRunnerMatchesCPURun holds corerun.go's claim that the method
// form reproduces CPU.Run's instruction timing, sync instants and error
// path: both forms must issue the same stores at the same kernel
// instants and finish with the same core state, at the same instant,
// with the same error — for a halting program, a runaway one stopped by
// the instruction bound and an illegal-opcode trap, at quanta from
// fully coupled to far longer than a run.
func TestCoreRunnerMatchesCPURun(t *testing.T) {
	programs := []struct {
		name, src string
		bounds    []uint64
		check     func(coreOutcome, uint64) bool
	}{
		{"halting", `
			addi r1, r0, 0
			addi r2, r0, 40
		loop:
			add  r3, r3, r1
			sw   r3, 256(r0)
			lw   r4, 256(r0)
			addi r1, r1, 1
			blt  r1, r2, loop
			halt
		`, []uint64{0, 57}, func(o coreOutcome, bound uint64) bool {
			return o.err == "" && o.halted == (bound == 0) && (bound == 0 || o.instrs == bound)
		}},
		{"runaway", `
		loop:
			addi r1, r1, 1
			sw   r1, 512(r0)
			jal  r0, loop
		`, []uint64{301, 1000}, func(o coreOutcome, bound uint64) bool {
			return o.err == "" && !o.halted && o.instrs == bound
		}},
		{"trap", `
			addi r1, r0, 9
		loop:
			sw   r1, 768(r0)
			addi r1, r1, -1
			bne  r1, r0, loop
			.word 0xff000000
			halt
		`, []uint64{0}, func(o coreOutcome, bound uint64) bool {
			return o.err != "" && !o.halted
		}},
	}
	for _, p := range programs {
		for _, bound := range p.bounds {
			for _, q := range []sim.Time{0, sim.NS(10), sim.NS(200), sim.US(1), sim.US(10)} {
				thread := runCore(t, p.src, q, bound, false)
				method := runCore(t, p.src, q, bound, true)
				name := fmt.Sprintf("%s/bound=%d/quantum=%s", p.name, bound, q)
				if len(thread.stores) == 0 || !p.check(thread, bound) {
					t.Fatalf("%s: CPU.Run outcome is not the case it should cover: %+v", name, thread)
				}
				if !reflect.DeepEqual(thread, method) {
					t.Errorf("%s: coreRunner differs from CPU.Run\nthread: %+v\nmethod: %+v", name, thread, method)
				}
				t.Logf("%s: %d stores (first %s, last %s), %d instructions, done at %s",
					name, len(thread.stores), thread.stores[0], thread.stores[len(thread.stores)-1], thread.instrs, thread.doneAt)
			}
		}
	}
}
