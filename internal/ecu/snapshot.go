package ecu

import (
	"repro/internal/sim"
)

// Snapshot state for the ECU prototype, following the sim.Snapshottable
// convention: ecuSlot.SnapshotState deep-copies everything a run
// mutates — core register files, ECC codeword arrays, the watchdog
// shadow memory, lockstep store logs, watchdog counters and the
// run-phase process machines — so restoring it plus the paired kernel
// checkpoint rewinds a slot to the golden-prefix instant exactly. The
// codeword arrays are sim.PagedState captures: restoring the capture a
// slot was last forked from copies back only the pages the run wrote.

type cpuState struct {
	regs    [16]uint32
	pc      uint32
	savedPC uint32
	inIRQ   bool
	pending bool
	halted  bool
	instrs  uint64
}

func (c *CPU) captureInto(st *cpuState) {
	st.regs = c.regs
	st.pc = c.pc
	st.savedPC = c.savedPC
	st.inIRQ = c.inIRQ
	st.pending = c.pending
	st.halted = c.halted
	st.instrs = c.instrs
}

func (c *CPU) restoreFrom(st *cpuState) {
	c.regs = st.regs
	c.pc = st.pc
	c.savedPC = st.savedPC
	c.inIRQ = st.inIRQ
	c.pending = st.pending
	c.halted = st.halted
	c.instrs = st.instrs
}

type eccState struct {
	mem           sim.PagedCapture
	corrected     uint64
	uncorrectable uint64
}

func (m *ECCMemory) captureInto(st *eccState) {
	m.mem.CaptureInto(&st.mem)
	st.corrected = m.corrected
	st.uncorrectable = m.uncorrectable
}

func (m *ECCMemory) restoreFrom(st *eccState) {
	m.mem.RestoreFrom(&st.mem)
	m.corrected = st.corrected
	m.uncorrectable = st.uncorrectable
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

type wdState struct {
	enabled  bool
	timeouts uint64
	kicks    uint64
}

type lsState struct {
	pLog, sLog storeLog
	diverged   bool
	detail     string
}

func (ls *Lockstep) captureInto(st *lsState) {
	st.pLog.copyFrom(&ls.pLog)
	st.sLog.copyFrom(&ls.sLog)
	st.diverged = ls.diverged
	st.detail = ls.detail
}

func (ls *Lockstep) restoreFrom(st *lsState) {
	ls.pLog.copyFrom(&st.pLog)
	ls.sLog.copyFrom(&st.sLog)
	ls.diverged = st.diverged
	ls.detail = st.detail
}

type crState struct {
	local sim.Time
	phase uint8
	err   error
}

// ecuSlotState is the opaque deep copy returned by SnapshotState.
type ecuSlotState struct {
	primary, shadow cpuState
	pram, sram      eccState
	wdshadow        any
	wd              wdState
	ls              lsState
	pRun, sRun      crState
	pDone, sDone    bool
	pErr, sErr      error
	haltAt          sim.Time
}

// SnapshotState implements sim.Snapshottable, reusing prev's buffers
// (codeword arrays, store logs, the watchdog shadow) so checkpoint-tree
// forking stays allocation-free in steady state.
func (s *ecuSlot) SnapshotState(prev any) any {
	st, _ := prev.(*ecuSlotState)
	if st == nil {
		st = &ecuSlotState{}
	}
	s.primary.captureInto(&st.primary)
	s.shadow.captureInto(&st.shadow)
	s.pram.captureInto(&st.pram)
	s.sram.captureInto(&st.sram)
	st.wdshadow = s.wdshadow.SnapshotState(st.wdshadow)
	st.wd = wdState{enabled: s.wd.enabled, timeouts: s.wd.timeouts, kicks: s.wd.kicks}
	s.ls.captureInto(&st.ls)
	st.pRun = crState{local: s.pRun.local, phase: s.pRun.phase, err: s.pRun.err}
	st.sRun = crState{local: s.sRun.local, phase: s.sRun.phase, err: s.sRun.err}
	st.pDone, st.sDone = s.pDone, s.sDone
	st.pErr, st.sErr = s.pErr, s.sErr
	st.haltAt = s.haltAt
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
	h.U32(c.savedPC)
	h.Bool(c.inIRQ)
	h.Bool(c.pending)
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
	s.primary.restoreFrom(&st.primary)
	s.shadow.restoreFrom(&st.shadow)
	s.pram.restoreFrom(&st.pram)
	s.sram.restoreFrom(&st.sram)
	s.wdshadow.RestoreState(st.wdshadow)
	s.wd.enabled = st.wd.enabled
	s.wd.timeouts = st.wd.timeouts
	s.wd.kicks = st.wd.kicks
	s.ls.restoreFrom(&st.ls)
	s.pRun.local, s.pRun.phase, s.pRun.err = st.pRun.local, st.pRun.phase, st.pRun.err
	s.sRun.local, s.sRun.phase, s.sRun.err = st.sRun.local, st.sRun.phase, st.sRun.err
	s.pDone, s.sDone = st.pDone, st.sDone
	s.pErr, s.sErr = st.pErr, st.sErr
	s.haltAt = st.haltAt
}
