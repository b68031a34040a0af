package ecu

import (
	"fmt"

	"repro/internal/sim"
)

// Lockstep runs two AE32 cores over the same program and compares
// their store streams — the classic dual-core lockstep safety
// mechanism of automotive microcontrollers. The cores run against
// separate memories (so a fault in one does not contaminate the
// other); the comparator flags the first divergent store. Detection
// is at store granularity: a corrupted register that never reaches a
// store stays latent, exactly as in real lockstep designs.
type Lockstep struct {
	pLog storeLog
	sLog storeLog
	verdict
}

// verdict is the comparator's run state: whether it fired, and on what.
type verdict struct {
	diverged bool
	detail   string
}

type storeRec struct {
	addr, val uint32
}

// storeLog is one core's append-only store stream plus a rolling
// digest of it, folded at append: a faulted program that runs away
// logs thousands of stores, and the state hash must not walk them
// again at every stride. The digest is a pure function of recs.
type storeLog struct {
	recs []storeRec
	sum  uint64
}

func (l *storeLog) append(r storeRec) {
	l.recs = append(l.recs, r)
	l.sum = sim.Mix64(l.sum, uint64(r.addr)<<32|uint64(r.val))
}

// copyFrom makes l a deep copy of o, reusing l's buffer.
func (l *storeLog) copyFrom(o *storeLog) {
	l.recs, l.sum = append(l.recs[:0], o.recs...), o.sum
}

// NewLockstep wires the comparator onto two cores.
func NewLockstep(primary, shadow *CPU) *Lockstep {
	ls := &Lockstep{}
	primary.StoreHook = func(addr, val uint32) { ls.record(&ls.pLog, &ls.sLog, addr, val, "primary") }
	shadow.StoreHook = func(addr, val uint32) { ls.record(&ls.sLog, &ls.pLog, addr, val, "shadow") }
	return ls
}

// record appends to own log and compares against the counterpart at
// the same index if already present.
func (ls *Lockstep) record(own, other *storeLog, addr, val uint32, who string) {
	idx := len(own.recs)
	own.append(storeRec{addr, val})
	if idx < len(other.recs) {
		o := other.recs[idx]
		if o.addr != addr || o.val != val {
			ls.flag(idx, who, addr, val, o)
		}
	}
}

func (ls *Lockstep) flag(idx int, who string, addr, val uint32, o storeRec) {
	if ls.diverged {
		return
	}
	ls.diverged = true
	ls.detail = fmt.Sprintf("store %d: %s wrote %#x=%#x, counterpart wrote %#x=%#x",
		idx, who, addr, val, o.addr, o.val)
}

// FinalCheck compares store counts after both cores halt: a core that
// stopped storing (e.g. crashed into a loop) also counts as
// divergence.
func (ls *Lockstep) FinalCheck() {
	if ls.diverged {
		return
	}
	if p, s := ls.Stores(); p != s {
		ls.diverged = true
		ls.detail = fmt.Sprintf("store count mismatch: primary %d, shadow %d", p, s)
	}
}

// Diverged reports whether the comparator fired.
func (ls *Lockstep) Diverged() bool { return ls.diverged }

// Stores reports the store counts seen so far.
func (ls *Lockstep) Stores() (primary, shadow int) { return len(ls.pLog.recs), len(ls.sLog.recs) }
