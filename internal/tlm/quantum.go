package tlm

import "repro/internal/sim"

// QuantumKeeper implements temporal decoupling for loosely-timed
// initiators: a process accumulates consumed time in a local offset and
// only synchronizes with the kernel when the offset exceeds the global
// quantum. This trades timing fidelity for speed — the trade-off the
// paper flags in Sec. 3.4 ("approaches are required that increase
// simulation performance ... e.g., by temporal decoupling") and that
// experiment E6 sweeps.
type QuantumKeeper struct {
	ctx     *sim.ThreadCtx
	quantum sim.Time
	local   sim.Time
}

// NewQuantumKeeper creates a keeper for the given thread context. A
// zero quantum means "synchronize on every Inc" (fully coupled).
func NewQuantumKeeper(ctx *sim.ThreadCtx, quantum sim.Time) *QuantumKeeper {
	return &QuantumKeeper{ctx: ctx, quantum: quantum}
}

// Inc adds consumed local time.
func (q *QuantumKeeper) Inc(d sim.Time) { q.local += d }

// CurrentTime reports kernel time plus local offset — the initiator's
// notion of "now".
func (q *QuantumKeeper) CurrentTime() sim.Time { return q.ctx.Now() + q.local }

// NeedSync reports whether the local offset has exceeded the quantum.
func (q *QuantumKeeper) NeedSync() bool { return q.local > q.quantum }

// Sync yields to the kernel for the accumulated local offset and
// resets it.
func (q *QuantumKeeper) Sync() {
	if q.local == 0 {
		return
	}
	d := q.local
	q.local = 0
	q.ctx.WaitTime(d)
}

// SyncIfNeeded synchronizes only when the quantum is exceeded; returns
// whether a sync happened.
func (q *QuantumKeeper) SyncIfNeeded() bool {
	if !q.NeedSync() {
		return false
	}
	q.Sync()
	return true
}
