package sim

// notifyKind ranks the three SystemC notification flavours. A pending
// notification may only be displaced by a "stronger" (earlier) one:
// immediate beats delta beats any timed, and an earlier timed beats a
// later timed.
type notifyKind uint8

const (
	notifyNone notifyKind = iota
	notifyTimed
	notifyDelta
	notifyImmediate
)

// Event is a synchronization primitive processes can wait on and that
// can be notified immediately, at the next delta cycle, or after a
// simulated-time delay. Events carry no value; signals layer a value on
// top via their value-changed event.
type Event struct {
	k *Kernel
	// idx is the event's position in the kernel's creation-ordered
	// event list, assigned by NewEvent; checkpoints reference events by
	// this index (see snapshot.go).
	idx int
	// shape is the kernel's elaboration digest just after this event was
	// created.
	shape uint64

	// static are processes statically sensitive to this event.
	static []*Proc
	// dynamic are processes dynamically waiting on this event; cleared
	// when the event fires.
	dynamic []*Proc

	// pending tracks the strongest outstanding notification so weaker
	// ones can be discarded per IEEE 1666 rules.
	pending     notifyKind
	pendingTime Time
	pendingSeq  uint64
}

// NewEvent creates a named event bound to the kernel. Events a Restore
// retired are recycled from the kernel's free list (keeping their
// sensitivity-list capacity) so re-elaboration does not allocate in
// steady state.
func (k *Kernel) NewEvent(name string) *Event {
	var e *Event
	if n := len(k.eventPool); n > 0 {
		e = k.eventPool[n-1]
		k.eventPool[n-1] = nil
		k.eventPool = k.eventPool[:n-1]
		e.k = k
	} else {
		e = &Event{k: k}
	}
	e.idx = len(k.events)
	k.shape = shapeStep(k.shape, shapeEvent, name)
	e.shape = k.shape
	k.events = append(k.events, e)
	return e
}

// recycle strips the event back to a reusable blank, keeping the
// capacity of its waiter lists. Called by Kernel.Restore.
func (e *Event) recycle() {
	for i := range e.static {
		e.static[i] = nil
	}
	e.static = e.static[:0]
	for i := range e.dynamic {
		e.dynamic[i] = nil
	}
	e.dynamic = e.dynamic[:0]
	e.pending = notifyNone
	e.pendingTime = 0
	e.pendingSeq = 0
}

// Notify schedules the event to fire after delay of simulated time.
// A zero delay is a delta notification: the event fires in the delta
// notification phase of the current time step, after the update phase.
// A pending weaker/later notification is cancelled, matching IEEE 1666.
func (e *Event) Notify(delay Time) {
	if delay == 0 {
		e.notifyDelta()
		return
	}
	e.k.stats.Notifications++
	at := e.k.now + delay
	switch e.pending {
	case notifyImmediate, notifyDelta:
		return // stronger notification already pending
	case notifyTimed:
		if e.pendingTime <= at {
			return // earlier timed notification already pending
		}
		// Later pending notification is displaced; the stale heap entry
		// is ignored at pop time via pendingSeq.
	}
	e.pending = notifyTimed
	e.pendingTime = at
	e.pendingSeq = e.k.scheduleTimed(e, at)
}

// notifyDelta schedules the event for the delta notification phase.
func (e *Event) notifyDelta() {
	e.k.stats.Notifications++
	if e.pending == notifyImmediate || e.pending == notifyDelta {
		return
	}
	e.pending = notifyDelta
	e.k.deltaQueue = append(e.k.deltaQueue, e)
}

// NotifyImmediate fires the event in the current evaluation phase:
// processes sensitive to it become runnable in the same delta cycle.
// Outside the evaluation phase it degrades to a delta notification.
func (e *Event) NotifyImmediate() {
	if !e.k.inEvaluate {
		e.notifyDelta()
		return
	}
	e.k.stats.Notifications++
	e.pending = notifyImmediate
	e.fire()
	e.pending = notifyNone
}

// Cancel withdraws any pending notification on the event.
func (e *Event) Cancel() {
	e.pending = notifyNone
}

// fire makes every process sensitive to the event runnable and clears
// dynamic waiters.
func (e *Event) fire() {
	for _, p := range e.static {
		if p.state == procWaiting && len(p.dynamicWait) == 0 {
			e.k.makeRunnable(p)
		}
	}
	if len(e.dynamic) > 0 {
		for _, p := range e.dynamic {
			p.dynamicFired(e)
		}
		e.dynamic = e.dynamic[:0]
	}
}

// removeDynamic drops p from the dynamic waiter list (used when a
// wait-with-timeout resumes through another member of its event set).
func (e *Event) removeDynamic(p *Proc) {
	for i, q := range e.dynamic {
		if q == p {
			e.dynamic = append(e.dynamic[:i], e.dynamic[i+1:]...)
			return
		}
	}
}
