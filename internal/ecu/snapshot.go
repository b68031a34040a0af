package ecu

import (
	"repro/internal/sim"
)

// Snapshot state for the ECU prototype, following the sim.Snapshottable
// convention: ecuSlot.SnapshotState deep-copies everything a run
// mutates — core register files, ECC codeword arrays, the watchdog
// shadow memory, lockstep store logs, watchdog counters and the
// run-phase process machines — so restoring it plus the paired kernel
// checkpoint rewinds a slot to the golden-prefix instant exactly. Each
// component's scalar run state is one value, copied by one assignment.
// The codeword arrays are sim.PagedState captures: restoring the
// capture a slot was last forked from copies back only the pages the
// run wrote.

type eccState struct {
	mem sim.PagedCapture
	eccCounters
}

func (m *ECCMemory) captureInto(st *eccState) {
	m.mem.CaptureInto(&st.mem)
	st.eccCounters = m.eccCounters
}

func (m *ECCMemory) restoreFrom(st *eccState) {
	m.mem.RestoreFrom(&st.mem)
	m.eccCounters = st.eccCounters
}

// PagedStats sums the paged-state work counters of both memories; a
// tree session with metrics publishes them (campaign.state_pages_*).
func (s *ecuSlot) PagedStats() sim.PagedStats {
	p, q := s.pram.mem.Stats(), s.sram.mem.Stats()
	return sim.PagedStats{
		PagesRehashed: p.PagesRehashed + q.PagesRehashed,
		PagesRestored: p.PagesRestored + q.PagesRestored,
	}
}

type lsState struct {
	pLog, sLog storeLog
	verdict
}

func (ls *Lockstep) captureInto(st *lsState) {
	st.pLog.copyFrom(&ls.pLog)
	st.sLog.copyFrom(&ls.sLog)
	st.verdict = ls.verdict
}

func (ls *Lockstep) restoreFrom(st *lsState) {
	ls.pLog.copyFrom(&st.pLog)
	ls.sLog.copyFrom(&st.sLog)
	ls.verdict = st.verdict
}

// ecuSlotState is the opaque deep copy returned by SnapshotState.
type ecuSlotState struct {
	primary, shadow cpuState
	pram, sram      eccState
	wdshadow        any
	wd              wdState
	ls              lsState
	pRun, sRun      crState
	completion
}

// SnapshotState implements sim.Snapshottable, reusing prev's buffers
// (codeword arrays, store logs, the watchdog shadow) so checkpoint-tree
// forking stays allocation-free in steady state.
func (s *ecuSlot) SnapshotState(prev any) any {
	st, _ := prev.(*ecuSlotState)
	if st == nil {
		st = &ecuSlotState{}
	}
	st.primary = s.primary.cpuState
	st.shadow = s.shadow.cpuState
	s.pram.captureInto(&st.pram)
	s.sram.captureInto(&st.sram)
	st.wdshadow = s.wdshadow.SnapshotState(st.wdshadow)
	st.wd = s.wd.wdState
	s.ls.captureInto(&st.ls)
	st.pRun = s.pRun.crState
	st.sRun = s.sRun.crState
	st.completion = s.completion
	return st
}

// HashState implements sim.Hashable, folding everything a run mutates
// and FinalCheck/finishRun later read: core register files and
// run-state machines, the ECC codewords plus their corrected and
// uncorrectable counters (detection outputs), the watchdog shadow
// memory and counters, the lockstep store logs (FinalCheck compares
// them after the run) and the halt/error latches. The ECU slot keeps
// no diagnostics-only state, so nothing is excluded.
func (s *ecuSlot) HashState(h *sim.StateHash) {
	hashCPU(h, s.primary)
	hashCPU(h, s.shadow)
	hashECC(h, s.pram)
	hashECC(h, s.sram)
	s.wdshadow.HashState(h)
	h.Bool(s.wd.enabled)
	h.U64(s.wd.timeouts)
	h.U64(s.wd.kicks)
	hashStores(h, &s.ls.pLog)
	hashStores(h, &s.ls.sLog)
	h.Bool(s.ls.diverged)
	h.Str(s.ls.detail)
	hashCoreRun(h, s.pRun.local, s.pRun.phase, s.pRun.err)
	hashCoreRun(h, s.sRun.local, s.sRun.phase, s.sRun.err)
	h.Bool(s.pDone)
	h.Bool(s.sDone)
	hashErr(h, s.pErr)
	hashErr(h, s.sErr)
	h.Time(s.haltAt)
}

func hashCPU(h *sim.StateHash, c *CPU) {
	for _, r := range c.regs {
		h.U32(r)
	}
	h.U32(c.pc)
	h.Bool(c.halted)
	h.U64(c.instrs)
}

func hashECC(h *sim.StateHash, m *ECCMemory) {
	m.mem.HashInto(h)
	h.U64(m.corrected)
	h.U64(m.uncorrectable)
}

// hashStores folds a store log as its length plus its rolling digest.
func hashStores(h *sim.StateHash, log *storeLog) {
	h.Int(len(log.recs))
	h.U64(log.sum)
}

func hashCoreRun(h *sim.StateHash, local sim.Time, phase uint8, err error) {
	h.Time(local)
	h.Byte(phase)
	hashErr(h, err)
}

// hashErr folds an error as a presence bit plus its message — two runs
// whose errors render identically are convergent for classification
// purposes (finishRun only reads Error()).
func hashErr(h *sim.StateHash, err error) {
	if err == nil {
		h.Bool(false)
		return
	}
	h.Bool(true)
	h.Str(err.Error())
}

// RestoreState implements sim.Snapshottable, reusing the slot's
// backing buffers (codeword arrays, store logs).
func (s *ecuSlot) RestoreState(state any) {
	st := state.(*ecuSlotState)
	s.primary.cpuState = st.primary
	s.shadow.cpuState = st.shadow
	s.pram.restoreFrom(&st.pram)
	s.sram.restoreFrom(&st.sram)
	s.wdshadow.RestoreState(st.wdshadow)
	s.wd.wdState = st.wd
	s.ls.restoreFrom(&st.ls)
	s.pRun.crState = st.pRun
	s.sRun.crState = st.sRun
	s.completion = st.completion
}
