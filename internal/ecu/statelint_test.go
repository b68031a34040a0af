package ecu

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/tlm"
)

// The state-coverage lint on the ECU prototype: every field of the
// slot and of each component it folds is either perturbed (digest must
// change, capture → perturb → restore must put it back) or listed
// below with the reason it is not. A new field on any of these structs
// fails here until it is hashed and snapshotted or given a row.

const (
	wiring = "wiring fixed by Build; the component's own state is linted as its own row"
	config = "configuration, constant after Build"
)

// midRunSlot returns a slot parked mid-workload: both cores inside the
// loop with stores logged, the watchdog armed and kicked.
func midRunSlot(t *testing.T) *ecuSlot {
	t.Helper()
	s := parkedSlot(t)
	if p, sh := s.ls.Stores(); p == 0 || sh == 0 || s.primary.Halted() {
		t.Fatalf("slot not mid-run: stores %d/%d, halted %v", p, sh, s.primary.Halted())
	}
	return s
}

// parkedSlot is the runner model's prototype built on a kernel of its
// own and run 2 µs into the workload.
func parkedSlot(tb testing.TB) *ecuSlot {
	tb.Helper()
	m, err := newModel(DefaultRunnerConfig())
	if err != nil {
		tb.Fatal(err)
	}
	k := sim.NewKernel()
	tb.Cleanup(k.Shutdown)
	s, _ := m.Build(k)
	if err := k.RunUntil(sim.US(2)); err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestStateCoverageSlot(t *testing.T) {
	s := midRunSlot(t)
	simtest.StateCoverage(t, s, s, map[string]simtest.Rule{
		"k":        simtest.NotState("scheduler state belongs to the kernel checkpoint and Kernel.HashScheduler"),
		"wd":       simtest.NotState(wiring),
		"primary":  simtest.NotState(wiring),
		"shadow":   simtest.NotState(wiring),
		"pram":     simtest.NotState(wiring),
		"sram":     simtest.NotState(wiring),
		"ls":       simtest.NotState(wiring),
		"pRun":     simtest.NotState(wiring),
		"sRun":     simtest.NotState(wiring),
		"stop":     simtest.NotState("wiring; the stopper keeps no state of its own"),
		"tableBuf": simtest.NotState("scratch: table overwrites it through the debug port before reading it"),
		"wdshadow": simtest.Via("tlm.Memory is linted in its own package; here: the slot folds and restores it",
			func() {
				s.wdshadow.TransportDbg(tlm.NewWrite(runnerWdBase+4, []byte{s.wdshadow.Peek(runnerWdBase+4, 1)[0] ^ 0xa5}))
			}),
	})
}

func TestStateCoverageCPU(t *testing.T) {
	s := midRunSlot(t)
	for _, c := range []*CPU{s.primary, s.shadow} {
		simtest.StateCoverage(t, s, c, map[string]simtest.Rule{
			"name":        simtest.NotState(config),
			"Bus":         simtest.NotState(wiring),
			"CyclePeriod": simtest.NotState(config),
			"CPI":         simtest.NotState(config),
			"StoreHook":   simtest.NotState("wiring: the lockstep comparator's hook"),
		})
	}
}

func TestStateCoverageECCMemory(t *testing.T) {
	s := midRunSlot(t)
	for _, m := range []*ECCMemory{s.pram, s.sram} {
		// One cell in the first page, one in the table, the last cell of
		// the last page; a data bit and a check bit.
		for _, cell := range []int{0, int(runnerTableBase / 4), m.mem.Len() - 1} {
			for _, bit := range []uint{3, 35} {
				simtest.StateCoverage(t, s, m, map[string]simtest.Rule{
					"base": simtest.NotState(config),
					"mem": simtest.Via("codewords live behind the PagedState write barrier",
						func() { m.mem.Store(cell, m.mem.Load(cell)^1<<bit) }),
				})
			}
		}
	}
}

func TestStateCoverageLockstep(t *testing.T) {
	s := midRunSlot(t)
	appendOnly := "append-only log folded through its rolling digest: perturbed the way the comparator writes it"
	simtest.StateCoverage(t, s, s.ls, map[string]simtest.Rule{
		"pLog.recs": simtest.Via(appendOnly, func() { s.ls.pLog.append(storeRec{0x800, 1}) }),
		"sLog.recs": simtest.Via(appendOnly, func() { s.ls.sLog.append(storeRec{0x800, 1}) }),
	})
}

func TestStateCoverageWatchdog(t *testing.T) {
	s := midRunSlot(t)
	simtest.StateCoverage(t, s, s.wd, map[string]simtest.Rule{
		"Timeout": simtest.NotState(config),
		"timer":   simtest.NotState("kernel event: its pending notification is scheduler state"),
	})
}

func TestStateCoverageCoreRunner(t *testing.T) {
	s := midRunSlot(t)
	for _, c := range []*coreRunner{s.pRun, s.sRun} {
		simtest.StateCoverage(t, s, c, map[string]simtest.Rule{
			"cpu":       simtest.NotState(wiring),
			"quantum":   simtest.NotState(config),
			"maxInstrs": simtest.NotState(config),
			"name":      simtest.NotState(config),
			"onDone":    simtest.NotState(wiring),
			"ev":        simtest.NotState("kernel event: its pending notification is scheduler state"),
			"delay":     simtest.NotState("scratch: step zeroes it before each instruction"),
		})
	}
}
