package sim

import (
	"errors"
	"fmt"
	"hash/maphash"
)

// Snapshottable is the convention prototypes implement to support
// checkpointing — golden-prefix nodes, and the time-zero capture a reused
// prototype is rewound to. The kernel's SnapshotInto/Restore pair covers
// scheduler state (clock, event queue, process states); SnapshotState
// captures everything else a run mutates, so that restoring both yields a
// simulation observationally identical to one that never ran past the
// snapshot point. A component keeps its scalar run state in one value
// struct, which capture and restore assign whole (as fmi2GetFMUstate
// takes a model's state as one value); only slices, maps and pointers get
// code of their own. prev is nil, which allocates, or an earlier capture
// of the same model type, whose buffers are overwritten, so checkpoint
// trees recycle node states allocation-free; either way every field is
// written. RestoreState writes a capture back and must not alias it into
// the model: a checkpoint is restored many times, and a run after one
// restore must not be able to corrupt the next.
type Snapshottable interface {
	SnapshotState(prev any) any
	RestoreState(state any)
}

// State is a model under both conventions: what checkpoints, early exit
// and the state-coverage lint need of a prototype.
type State interface {
	Snapshottable
	Hashable
}

// cpTimed is one live timed notification captured by a checkpoint: the
// firing time, the displacement sequence number, and the index of the
// target event in the kernel's creation-ordered event list.
type cpTimed struct {
	at  Time
	seq uint64
	ev  int
}

// Checkpoint is an opaque kernel snapshot taken by Kernel.SnapshotInto
// and consumed by Kernel.Restore. It names events and processes by
// creation index, so it restores into any kernel elaborated the same way — the
// one it was taken on, or another kernel the same Model.Build elaborated
// — and into no other (see Restore). It captures the clock, the timed
// event queue, per-event pending notifications, per-process run states
// (a process runnable at the snapshot, such as one still waiting for its
// initial activation, is runnable again after the restore) and the
// activity counters. Model-side state is the prototype's job via
// Snapshottable.
type Checkpoint struct {
	// shape is the source kernel's elaboration digest: that of the
	// (kind, name) sequence of every retained event and process.
	shape uint64

	now   Time
	seq   uint64
	stats Stats

	nProcs  int
	nEvents int

	timed     []cpTimed   // live timed entries, sorted by (at, seq)
	staticLen []int       // per retained event: len(static) at snapshot
	states    []procState // per retained proc: run state at snapshot
}

// ApproxBytes estimates the memory retained by the checkpoint's
// internal buffers — the quantity checkpoint trees budget their
// retained nodes against. Capacities (not lengths) are counted, since
// capacity is what the buffers actually pin.
func (cp *Checkpoint) ApproxBytes() int {
	const (
		timedSize = 24 // cpTimed: Time + uint64 + int
		headBytes = 96 // fixed fields
	)
	return headBytes + cap(cp.timed)*timedSize + cap(cp.staticLen)*8 + cap(cp.states)
}

// SnapshotInto captures the kernel's scheduler state into cp, reusing
// its internal buffers (repeated snapshots through the same Checkpoint
// are allocation-free in steady state), so a later Restore can rewind
// the simulation to this exact point. The kernel must be between Run
// calls (snapshotting mid-delta-cycle would tear the
// evaluate/update/notify phases apart), with no pending delta
// notifications or channel updates (run to a time boundary first), no
// live thread processes (a goroutine stack cannot be copied — convert
// campaign-path threads to method processes), and no attached tracers
// (their probes observe only the forward run). Runnable method
// processes are allowed, so a freshly elaborated kernel, its processes
// waiting for their initial activation, is snapshottable: that capture
// rewinds a kernel to time zero. Model state is NOT captured — pair this
// with the prototype's Snapshottable.
func (k *Kernel) SnapshotInto(cp *Checkpoint) error {
	if k.running {
		return errors.New("sim: Snapshot called while the kernel is running (snapshots must be taken between Run calls, not mid-delta-cycle)")
	}
	if len(k.deltaQueue) > 0 {
		return errors.New("sim: Snapshot with pending delta notifications (run to a time boundary first)")
	}
	if len(k.updateQueue) > 0 {
		return errors.New("sim: Snapshot with pending channel updates (run to a time boundary first)")
	}
	if len(k.tracers) > 0 {
		return errors.New("sim: Snapshot with attached tracers (tracers observe only the forward run; attach after restoring instead)")
	}
	if k.threadPanic != nil {
		return errors.New("sim: Snapshot after an unhandled thread panic")
	}
	for _, p := range k.procs {
		if p.kind == threadProc && p.state != procDone {
			return fmt.Errorf("sim: Snapshot with live thread process %q (goroutine stacks cannot be checkpointed; use method processes on the checkpoint path)", p.name)
		}
	}

	cp.shape = k.shape
	cp.now = k.now
	cp.seq = k.seq
	cp.stats = k.stats
	cp.nProcs = len(k.procs)
	cp.nEvents = len(k.events)

	cp.staticLen = cp.staticLen[:0]
	for _, e := range k.events {
		cp.staticLen = append(cp.staticLen, len(e.static))
	}
	cp.states = cp.states[:0]
	for _, p := range k.procs {
		cp.states = append(cp.states, p.state)
	}

	// Keep only live timed entries (an event's pendingSeq names the one
	// heap entry that still counts; the rest were displaced). Sorted by
	// (at, seq) the capture is itself a valid min-heap, so Restore can
	// install it verbatim.
	cp.timed = cp.timed[:0]
	for _, te := range k.timed {
		if te.ev.pending == notifyTimed && te.ev.pendingSeq == te.seq {
			cp.timed = append(cp.timed, cpTimed{at: te.at, seq: te.seq, ev: te.ev.idx})
		}
	}
	sortCpTimed(cp.timed)
	return nil
}

// sortCpTimed orders captured timed entries by (at, seq). Insertion
// sort: the heap is already nearly ordered and snapshots must not
// allocate (sort.Slice's closure would), mirroring sortRunnable.
func sortCpTimed(ts []cpTimed) {
	for i := 1; i < len(ts); i++ {
		e := ts[i]
		j := i - 1
		for j >= 0 && (ts[j].at > e.at || (ts[j].at == e.at && ts[j].seq > e.seq)) {
			ts[j+1] = ts[j]
			j--
		}
		ts[j+1] = e
	}
}

// Restore rewinds the kernel to the state captured by cp: the clock,
// the timed queue and every pending notification return to their
// snapshot values, and events/processes created after the snapshot
// (for example a stressor elaborated onto the golden prefix) are
// retired into the kernel's free lists in reverse creation order —
// re-elaborating the same objects after the restore pops them straight
// back out, so a restore-respawn-run campaign loop is allocation-free
// in steady state. Tracers attached since the snapshot are detached:
// their probes observe only the forward run. An attached Instrument
// stays, its published watermark rebased to the restored counters.
//
// The rule is elaboration shape, not kernel identity: the kernel must
// hold at least the checkpoint's events and processes, and its first
// ones must have been created with the same (kind, name) sequence as
// the source kernel's. So the source kernel, or a second kernel of the
// same prototype, accepts the checkpoint; an empty kernel, or one
// elaborated by another model, refuses it. The check is O(1). Restoring
// the same checkpoint repeatedly, into one kernel or several, is valid —
// that is the campaign use; Restore only reads cp.
func (k *Kernel) Restore(cp *Checkpoint) error {
	if k.running {
		return errors.New("sim: Restore called while the kernel is running")
	}
	if len(k.procs) < cp.nProcs || len(k.events) < cp.nEvents {
		return errors.New("sim: Restore target has fewer processes or events than the checkpoint (not elaborated yet?)")
	}
	if !k.elaboratedAs(cp) {
		return errors.New("sim: Restore of a checkpoint from another elaboration (events or processes differ in kind or name)")
	}

	// Retire post-snapshot objects into the free lists, newest first: the
	// lists are LIFO, so re-elaborating the same objects pops each back
	// into its previous role, waiter-list capacities and cached derived
	// names lining up.
	for i := len(k.procs) - 1; i >= cp.nProcs; i-- {
		p := k.procs[i]
		p.kill()
		p.recycle()
		k.procPool = append(k.procPool, p)
		k.procs[i] = nil
	}
	k.procs = k.procs[:cp.nProcs]
	for i := len(k.events) - 1; i >= cp.nEvents; i-- {
		e := k.events[i]
		e.recycle()
		k.eventPool = append(k.eventPool, e)
		k.events[i] = nil
	}
	k.events = k.events[:cp.nEvents]

	// Drop all transient scheduler activity.
	for i := range k.runnable {
		k.runnable[i] = nil
	}
	k.runnable = k.runnable[:0]
	for i := range k.deltaQueue {
		k.deltaQueue[i] = nil
	}
	k.deltaQueue = k.deltaQueue[:0]
	for i := range k.updateQueue {
		k.updateQueue[i] = nil
	}
	k.updateQueue = k.updateQueue[:0]

	// Rewind retained events to the snapshot: static waiter lists are
	// append-only, so truncating to the recorded length removes exactly
	// the post-snapshot attachments; dynamic waiter lists were empty at
	// snapshot time (only live threads wait dynamically, and Snapshot
	// rejects those).
	for i, e := range k.events {
		n := cp.staticLen[i]
		for j := n; j < len(e.static); j++ {
			e.static[j] = nil
		}
		e.static = e.static[:n]
		for j := range e.dynamic {
			e.dynamic[j] = nil
		}
		e.dynamic = e.dynamic[:0]
		e.pending = notifyNone
		e.pendingTime = 0
		e.pendingSeq = 0
	}

	// Reinstall the timed queue. The capture is (at, seq)-sorted, which
	// is a valid heap layout, so it drops in without sifting.
	for i := range k.timed {
		k.timed[i] = timedEntry{}
	}
	k.timed = k.timed[:0]
	for _, te := range cp.timed {
		e := k.events[te.ev]
		e.pending = notifyTimed
		e.pendingTime = te.at
		e.pendingSeq = te.seq
		k.timed = append(k.timed, timedEntry{at: te.at, seq: te.seq, ev: e})
	}

	for i, p := range k.procs {
		p.state = cp.states[i]
		if p.state == procRunnable {
			// The evaluate phase sorts its batch by id, so queue order
			// does not matter.
			k.runnable = append(k.runnable, p)
		}
		for j := range p.dynamicWait {
			p.dynamicWait[j] = nil
		}
		p.dynamicWait = p.dynamicWait[:0]
		p.waitCause = nil
		if p.timerEv != nil && p.timerEv.idx >= cp.nEvents {
			// The lazily created timer event postdates the snapshot and
			// was just retired; the next timed wait re-creates it.
			p.timerEv = nil
		}
	}

	k.now = cp.now
	k.seq = cp.seq
	k.stats = cp.stats
	k.shape = cp.shape
	k.inEvaluate = false
	k.stopped = false
	k.threadPanic = nil
	k.tracers = k.tracers[:0]
	if in := k.instr; in != nil {
		// The kernel counters just moved backwards; rebase the published
		// watermark so the next flush publishes only post-restore work
		// instead of computing garbage uint64 deltas.
		in.published = k.stats
	}
	return nil
}

// elaboratedAs reports whether the kernel's first cp.nEvents events and
// cp.nProcs processes were created in the (kind, name) sequence of the
// elaboration cp was taken on. Of the two objects that close those
// prefixes, the later-created one carries the digest of the whole
// sequence, so comparing each with cp's digest decides it.
func (k *Kernel) elaboratedAs(cp *Checkpoint) bool {
	if cp.nEvents > 0 && k.events[cp.nEvents-1].shape == cp.shape {
		return true
	}
	if cp.nProcs > 0 && k.procs[cp.nProcs-1].shape == cp.shape {
		return true
	}
	return cp.nEvents == 0 && cp.nProcs == 0
}

// shapeSeed keys the name hash of elaboration digests. Digests are only
// ever compared within one process.
var shapeSeed = maphash.MakeSeed()

// shapeEvent is an event's kind in the elaboration digest; a process
// folds its procKind.
const shapeEvent = 0xff

// shapeStep folds one created object, its kind and its name, into the
// elaboration digest h.
func shapeStep(h uint64, kind byte, name string) uint64 {
	return Mix64(Mix64(h, uint64(kind)), maphash.String(shapeSeed, name))
}
