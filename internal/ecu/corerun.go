package ecu

import (
	"repro/internal/sim"
)

// This file hosts the campaign-path process bodies of the ECU runner
// as method-process state machines. CPU.Run's thread form is the
// natural way to write a temporally decoupled core loop, but a thread
// carries a goroutine stack, and a goroutine stack cannot be
// checkpointed — so the campaign runner drives the same loop through
// coreRunner, which unrolls the thread's blocking points (quantum
// syncs) into explicit phases. The instruction-by-instruction timing,
// the sync instants and the per-instant process ordering are identical
// to CPU.Run; only the representation of "where the loop is parked"
// changes from a stack to a phase byte.

// coreRunner phases: crRun executes instructions from the top of an
// activation; crBound means the last activation parked on a quantum
// sync and must re-check the instruction bound on resume (mirroring
// CPU.Run's post-SyncIfNeeded check); crFinish means the core is done
// and the activation only completes the final sync.
const (
	crRun uint8 = iota
	crBound
	crFinish
)

// coreRunner drives one AE32 core as a method process with temporal
// decoupling, equivalent to CPU.Run on a thread: consumed time
// accumulates in local and the process re-notifies itself (the method
// analogue of QuantumKeeper.Sync) when local exceeds the quantum.
type coreRunner struct {
	cpu       *CPU
	quantum   sim.Time
	maxInstrs uint64
	name      string
	// onDone is bound once at slot construction; it publishes the
	// core's completion (error and done flag) into the slot.
	onDone func(error)

	ev *sim.Event
	crState
	// delay is one Step's consumed time. Step hands it on to the bus,
	// through the tlm.Target interface, so a local would escape: one heap
	// object an instruction.
	delay sim.Time
}

// crState is a core runner's run state: unsynced time, phase, error.
type crState struct {
	local sim.Time
	phase uint8
	err   error
}

// elaborate registers the runner's event and method process on the
// kernel.
func (c *coreRunner) elaborate(k *sim.Kernel) {
	c.ev = k.NewEvent(c.name + ".timer")
	k.Method(c.name, c.step, c.ev)
}

// step is one activation: resume from the parked phase, then execute
// instructions until the core halts, faults, hits the bound or
// exceeds the quantum.
func (c *coreRunner) step() {
	switch c.phase {
	case crBound:
		// Resuming from a quantum sync: CPU.Run checks the instruction
		// bound right after SyncIfNeeded returns.
		c.phase = crRun
		if c.maxInstrs > 0 && c.cpu.instrs >= c.maxInstrs {
			c.finish(nil)
			return
		}
	case crFinish:
		c.complete()
		return
	}
	for !c.cpu.halted {
		c.delay = 0
		if err := c.cpu.Step(&c.delay); err != nil {
			// The failing step's own consumed time is not synchronized,
			// exactly as CPU.Run's error path (d was never Inc'd).
			c.finish(err)
			return
		}
		c.local += c.delay
		if c.local > c.quantum {
			d := c.local
			c.local = 0
			c.ev.Notify(d)
			c.phase = crBound
			return
		}
		if c.maxInstrs > 0 && c.cpu.instrs >= c.maxInstrs {
			break
		}
	}
	c.finish(nil)
}

// finish performs the final quantum sync (CPU.Run's trailing
// qk.Sync()) and then completes, carrying err across the sync.
func (c *coreRunner) finish(err error) {
	c.err = err
	if c.local > 0 {
		d := c.local
		c.local = 0
		c.ev.Notify(d)
		c.phase = crFinish
		return
	}
	c.complete()
}

func (c *coreRunner) complete() {
	c.phase = crFinish
	c.onDone(c.err)
}

// stopRunner is the method form of the run-phase stopper thread: poll
// every microsecond until both cores are done, then record the halt
// time and disarm the watchdog so a healthy run drains its event queue
// before the horizon.
type stopRunner struct {
	s  *ecuSlot
	ev *sim.Event
}

func (st *stopRunner) elaborate(k *sim.Kernel) {
	st.ev = k.NewEvent("ecu.run.stopper.timer")
	k.Method("ecu.run.stopper", st.step, st.ev)
}

func (st *stopRunner) step() {
	if !st.s.pDone || !st.s.sDone {
		st.ev.Notify(sim.US(1))
		return
	}
	st.s.haltAt = st.s.k.Now()
	st.s.wd.Stop()
}
