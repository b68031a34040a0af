package sim

import (
	"errors"
	"fmt"
	"time"
)

// DefaultMaxDeltas bounds the number of delta cycles the kernel will
// execute at a single time point before concluding the model contains a
// zero-delay combinational loop.
const DefaultMaxDeltas = 1_000_000

// ErrDeltaOverflow reports a (combinational) loop that never lets
// simulated time advance.
var ErrDeltaOverflow = errors.New("sim: delta cycle limit exceeded (zero-delay loop?)")

// Updater is implemented by primitive channels (signals) that defer
// their value change to the update phase of the delta cycle.
type Updater interface {
	update()
}

// timedEntry is one pending timed notification in the event queue.
type timedEntry struct {
	at  Time
	seq uint64
	ev  *Event
}

func (e timedEntry) before(o timedEntry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// timedHeap is a binary min-heap ordered by (at, seq). The sift
// routines are hand-rolled rather than going through container/heap:
// the interface-based heap boxes every timedEntry into an `any` on
// Push and Pop, which costs one allocation per timed notification —
// the single hottest allocation in a fault campaign.
type timedHeap []timedEntry

func (h timedHeap) Len() int { return len(h) }

func (h *timedHeap) push(e timedEntry) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func (h *timedHeap) pop() timedEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = timedEntry{} // release the *Event reference in the vacated slot
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r].before(s[l]) {
			m = r
		}
		if !s[m].before(s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// Stats reports kernel activity counters, used by the abstraction-level
// benchmarks (experiment E1) to attribute cost to scheduling work.
type Stats struct {
	// DeltaCycles is the total number of evaluate/update rounds run.
	DeltaCycles uint64
	// Activations is the total number of process activations.
	Activations uint64
	// TimeSteps is the number of distinct time points visited.
	TimeSteps uint64
	// Notifications is the number of Notify and NotifyImmediate calls of
	// every kind — timed, delta and immediate, taken up or discarded for
	// a stronger pending one. A stretch of simulation over which it has
	// not risen scheduled nothing.
	Notifications uint64
}

// Kernel is a discrete-event simulator instance. It is not safe for
// concurrent use; all model code runs on the kernel's goroutine (or on
// thread-process goroutines that the kernel resumes one at a time).
type Kernel struct {
	now    Time
	procs  []*Proc
	events []*Event

	runnable   []*Proc
	deltaQueue []*Event
	timed      timedHeap
	seq        uint64

	// spare buffers recycled by the evaluate and delta notification
	// phases: each phase swaps its queue with the spare instead of
	// allocating a fresh slice per delta cycle.
	runnableSpare []*Proc
	deltaSpare    []*Event

	updateQueue []Updater

	inEvaluate bool
	running    bool
	stopped    bool
	maxDeltas  uint64

	stats       Stats
	threadPanic error

	tracers []*Tracer
	instr   *Instrument

	// shape digests the (kind, name) sequence of the events and processes
	// elaborated so far; each object keeps its value as of its creation,
	// which is what a Checkpoint is matched against (see snapshot.go).
	shape uint64

	// free lists recycling the objects a Restore retires: NewEvent,
	// Method and Thread draw from these, so elaborating the same stressor
	// after every restore allocates nothing in steady state.
	eventPool []*Event
	procPool  []*Proc

	// hashScratch is HashScheduler's sorted-timed-entry buffer, reused
	// across calls so convergence checks stay allocation-free.
	hashScratch []cpTimed

	// workerPool parks idle thread-worker goroutines (see threadWorker
	// in process.go). Workers survive Restore, so a rewound kernel
	// resumes thread processes on warm goroutines instead of paying go +
	// channel allocation per elaboration; Shutdown terminates them.
	workerPool []*threadWorker
}

// NewKernel creates an empty simulator.
func NewKernel() *Kernel {
	return &Kernel{maxDeltas: DefaultMaxDeltas}
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Stats returns a copy of the kernel activity counters.
func (k *Kernel) Stats() Stats { return k.stats }

// Stop makes the current Run call return after the ongoing delta cycle
// completes. Further Run calls resume the simulation.
func (k *Kernel) Stop() { k.stopped = true }

// scheduleTimed enqueues a timed notification and returns its sequence
// number for stale-entry detection.
func (k *Kernel) scheduleTimed(e *Event, at Time) uint64 {
	k.seq++
	k.timed.push(timedEntry{at: at, seq: k.seq, ev: e})
	return k.seq
}

// makeRunnable marks p for execution in the current (or next) evaluate
// phase.
func (k *Kernel) makeRunnable(p *Proc) {
	if p.state == procRunnable || p.state == procDone {
		return
	}
	p.state = procRunnable
	k.runnable = append(k.runnable, p)
}

// enqueueInitial schedules the initial activation of a newly created
// process.
func (k *Kernel) enqueueInitial(p *Proc) {
	k.makeRunnable(p)
}

// DeferUpdate registers an Updater to run in the update phase of the
// current delta cycle. Registering the same Updater twice in one delta
// cycle is the caller's responsibility to avoid (signals guard it).
func (k *Kernel) DeferUpdate(u Updater) {
	k.updateQueue = append(k.updateQueue, u)
}

// Run advances the simulation by d of simulated time (relative), or
// until no events remain, or until Stop is called, whichever comes
// first. Run(TimeMax) runs to event-queue exhaustion.
func (k *Kernel) Run(d Time) error {
	until := TimeMax
	if d != TimeMax && k.now <= TimeMax-d {
		until = k.now + d
	}
	return k.RunUntil(until)
}

// RunUntil advances the simulation up to and including absolute time
// `until`.
func (k *Kernel) RunUntil(until Time) error {
	if k.running {
		return errors.New("sim: RunUntil called re-entrantly")
	}
	k.running = true
	k.stopped = false
	defer func() { k.running = false }()

	if in := k.instr; in != nil {
		runStart := time.Now()
		startStats := k.stats
		sp := in.Trace.Begin("sim", "kernel.run", in.TID)
		defer func() {
			k.flushInstr(runStart)
			sp.Arg("delta_cycles", k.stats.DeltaCycles-startStats.DeltaCycles).
				Arg("activations", k.stats.Activations-startStats.Activations).
				Arg("time_steps", k.stats.TimeSteps-startStats.TimeSteps).
				Arg("sim_now", k.now.String()).End()
		}()
	}

	for {
		// One time point: delta cycles until quiescent.
		var deltasHere uint64
		for len(k.runnable) > 0 || len(k.deltaQueue) > 0 {
			if err := k.deltaCycle(); err != nil {
				return err
			}
			if k.threadPanic != nil {
				err := k.threadPanic
				k.threadPanic = nil
				return err
			}
			deltasHere++
			if deltasHere > k.maxDeltas {
				return fmt.Errorf("%w at %s", ErrDeltaOverflow, k.now)
			}
			if k.stopped {
				return nil
			}
		}
		if in := k.instr; in != nil && in.deltasPerStep != nil && deltasHere > 0 {
			in.deltasPerStep.Observe(deltasHere)
		}

		// Advance to the next timed notification.
		fired := false
		for k.timed.Len() > 0 {
			next := k.timed[0]
			if next.at > until {
				break
			}
			if fired && next.at != k.now {
				break // fire only one time point per outer iteration
			}
			k.timed.pop()
			e := next.ev
			if e.pending != notifyTimed || e.pendingSeq != next.seq {
				continue // stale entry displaced by a stronger notification
			}
			if !fired {
				k.now = next.at
				k.stats.TimeSteps++
				fired = true
				if in := k.instr; in != nil && in.eventQueueDepth != nil {
					in.eventQueueDepth.Observe(uint64(k.timed.Len() + 1))
				}
			}
			e.pending = notifyNone
			e.fire()
		}
		if !fired {
			// Nothing left within the horizon.
			if until != TimeMax && until > k.now {
				k.now = until
			}
			return nil
		}
	}
}

// sortRunnable orders a runnable batch by ascending process id.
// Insertion sort: batches are small (typically a handful of processes)
// and nearly sorted (processes usually become runnable in id order),
// and unlike sort.Slice it does not allocate a closure — the evaluate
// phase must stay allocation-free in steady state.
func sortRunnable(ps []*Proc) {
	for i := 1; i < len(ps); i++ {
		p := ps[i]
		j := i - 1
		for j >= 0 && ps[j].id > p.id {
			ps[j+1] = ps[j]
			j--
		}
		ps[j+1] = p
	}
}

// deltaCycle runs one evaluate phase, one update phase and one delta
// notification phase.
func (k *Kernel) deltaCycle() error {
	k.stats.DeltaCycles++
	if in := k.instr; in != nil && in.runnableDepth != nil {
		in.runnableDepth.Observe(uint64(len(k.runnable) + len(k.deltaQueue)))
	}

	// Evaluate: run every runnable process in creation order. Processes
	// made runnable during the phase (immediate notification) run within
	// the same phase. The batch buffer and the live queue ping-pong via
	// the spare so no delta cycle allocates.
	k.inEvaluate = true
	for len(k.runnable) > 0 {
		batch := k.runnable
		k.runnable = k.runnableSpare[:0]
		sortRunnable(batch)
		for _, p := range batch {
			if p.state != procRunnable {
				continue
			}
			p.run()
			if k.threadPanic != nil {
				k.inEvaluate = false
				k.runnableSpare = batch[:0]
				return nil // surfaced by caller
			}
		}
		k.runnableSpare = batch[:0]
	}
	k.inEvaluate = false

	// Update: apply deferred primitive-channel updates.
	updates := k.updateQueue
	k.updateQueue = k.updateQueue[:0]
	for _, u := range updates {
		u.update()
	}

	// Delta notification: fire events notified with zero delay. Same
	// spare-buffer swap as the evaluate phase.
	dq := k.deltaQueue
	k.deltaQueue = k.deltaSpare[:0]
	for _, e := range dq {
		if e.pending != notifyDelta {
			continue
		}
		e.pending = notifyNone
		e.fire()
	}
	k.deltaSpare = dq[:0]

	for _, tr := range k.tracers {
		tr.sampleDelta(k.now)
	}
	return nil
}

// NextEventTime returns the absolute time of the earliest pending timed
// notification, or TimeMax when none is pending.
//
// Contract: while the kernel is running (in particular from model code
// during the evaluate phase) the query is strictly read-only — it scans
// past stale entries without popping them, because RunUntil's pop loop
// and Notify's displacement bookkeeping own the heap's structure at
// that point. Only when the kernel is idle between Run calls does it
// compact stale entries away so repeated idle queries stay cheap.
func (k *Kernel) NextEventTime() Time {
	if k.running || k.inEvaluate {
		best := TimeMax
		for _, te := range k.timed {
			if te.ev.pending == notifyTimed && te.ev.pendingSeq == te.seq && te.at < best {
				best = te.at
			}
		}
		return best
	}
	for k.timed.Len() > 0 {
		next := k.timed[0]
		if next.ev.pending == notifyTimed && next.ev.pendingSeq == next.seq {
			return next.at
		}
		k.timed.pop()
	}
	return TimeMax
}

// Shutdown kills every live thread-process goroutine. Call it when the
// simulation is finished to avoid leaking goroutines; the kernel must
// not be used afterwards. To reuse the kernel instead, Restore a
// checkpoint taken on it.
func (k *Kernel) Shutdown() {
	for _, p := range k.procs {
		p.kill()
	}
	k.shutdownWorkers()
}
