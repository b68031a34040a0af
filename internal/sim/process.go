package sim

import (
	"fmt"
	"time"
)

type procState uint8

const (
	procWaiting procState = iota
	procRunnable
	procRunning
	procDone
)

type procKind uint8

const (
	methodProc procKind = iota
	threadProc
)

// errKilled is the panic sentinel used to unwind a thread process
// goroutine when the kernel shuts down.
type killedError struct{ name string }

func (e killedError) Error() string { return "sim: thread " + e.name + " killed" }

// Proc is a simulation process: either a method process (a callback
// re-invoked on each activation, like SC_METHOD) or a thread process
// (a goroutine with its own control flow that suspends via Wait, like
// SC_THREAD). The kernel runs at most one process at a time, in
// ascending creation order within each delta cycle, so simulations are
// fully deterministic.
type Proc struct {
	k    *Kernel
	name string
	id   int
	kind procKind
	// shape is the kernel's elaboration digest just after this process
	// was created.
	shape uint64

	state  procState
	fn     func()           // method body
	tfn    func(*ThreadCtx) // thread body
	static []*Event

	dynamicWait []*Event // events the thread currently waits on (any-of)
	waitCause   *Event   // which event resumed the last dynamic wait

	// instrumentation accumulators, maintained only while an
	// Instrument is attached to the kernel (see instrument.go);
	// pub* record the portion already flushed to the registry.
	activations    uint64
	runNanos       int64
	pubActivations uint64
	pubRunNanos    int64

	// thread machinery: w is the worker goroutine currently hosting the
	// thread body, acquired from the kernel's pool on first activation
	// and returned when the body finishes or is killed.
	killed  bool
	w       *threadWorker
	ctx     *ThreadCtx
	timerEv *Event // lazily created private event for timed waits

	// timerName caches the derived timer-event name for the process
	// name it was built from. Both survive recycle: a restored kernel
	// re-elaborating the same objects hands each Proc the same role (and
	// name) again, so the concat happens once per pool slot, not once
	// per run.
	timerName    string
	timerNameFor string
}

// timerEvent lazily creates the process's private timed-wait event.
func (p *Proc) timerEvent() *Event {
	if p.timerEv == nil {
		if p.timerNameFor != p.name {
			p.timerNameFor = p.name
			p.timerName = p.name + ".timer"
		}
		p.timerEv = p.k.NewEvent(p.timerName)
	}
	return p.timerEv
}

// threadWorker is a pooled goroutine that hosts thread-process bodies
// one after another. The goroutine and its handshake channel pair are
// the expensive part of a thread process; decoupling them from Proc
// lets Kernel.Restore keep them warm in the kernel's pool, so a rewound
// kernel re-elaborates threads without spawning goroutines — a cost the
// rebuild-per-run path necessarily pays on every fresh kernel.
type threadWorker struct {
	resume chan struct{}
	yield  chan struct{}
	p      *Proc // current assignment; set by the kernel before resume
	die    bool  // set by Shutdown before the final resume
}

// main is the worker goroutine: park, run one thread body to
// completion (or kill-unwind), hand control back, repeat.
func (w *threadWorker) main() {
	for {
		<-w.resume
		if w.die {
			return
		}
		w.runBody()
		w.yield <- struct{}{}
	}
}

// runBody executes the assigned thread body, converting panics into
// either a clean kill-unwind or a recorded thread panic.
func (w *threadWorker) runBody() {
	p := w.p
	defer func() {
		if r := recover(); r != nil {
			p.state = procDone
			if _, ok := r.(killedError); ok {
				return
			}
			// Re-panicking on the kernel's goroutine would lose the
			// stack; record and surface through the kernel instead.
			p.k.threadPanic = fmt.Errorf("sim: thread %q panicked: %v", p.name, r)
		}
	}()
	p.tfn(p.ctx)
	p.state = procDone
}

// acquireWorker pops a parked worker or spawns a fresh one.
func (k *Kernel) acquireWorker() *threadWorker {
	if n := len(k.workerPool); n > 0 {
		w := k.workerPool[n-1]
		k.workerPool[n-1] = nil
		k.workerPool = k.workerPool[:n-1]
		return w
	}
	w := &threadWorker{resume: make(chan struct{}), yield: make(chan struct{})}
	go w.main()
	return w
}

// releaseWorker parks a worker whose body has fully unwound.
func (k *Kernel) releaseWorker(w *threadWorker) {
	w.p = nil
	k.workerPool = append(k.workerPool, w)
}

// shutdownWorkers terminates every parked worker goroutine. Live
// (assigned) workers must have been released via kill first.
func (k *Kernel) shutdownWorkers() {
	for i, w := range k.workerPool {
		w.die = true
		w.resume <- struct{}{}
		k.workerPool[i] = nil
	}
	k.workerPool = k.workerPool[:0]
}

// allocProc returns a blank process bound to k with the next creation
// id, drawing from the free list populated by Restore when possible.
func (k *Kernel) allocProc(name string, kind procKind) *Proc {
	var p *Proc
	if n := len(k.procPool); n > 0 {
		p = k.procPool[n-1]
		k.procPool[n-1] = nil
		k.procPool = k.procPool[:n-1]
	} else {
		p = &Proc{}
	}
	p.k = k
	p.name = name
	p.id = len(k.procs)
	p.kind = kind
	k.shape = shapeStep(k.shape, byte(kind), name)
	p.shape = k.shape
	return p
}

// recycle strips the process back to a reusable blank for the kernel
// free list. The ThreadCtx survives (it only references the Proc), and
// the worker goroutine has already been returned to the kernel's pool
// by kill or by the final activation, so p.w is nil here. Called by
// Kernel.Restore after the body (if any) has unwound.
func (p *Proc) recycle() {
	p.name = ""
	p.state = procWaiting
	p.fn = nil
	p.tfn = nil
	for i := range p.static {
		p.static[i] = nil
	}
	p.static = p.static[:0]
	for i := range p.dynamicWait {
		p.dynamicWait[i] = nil
	}
	p.dynamicWait = p.dynamicWait[:0]
	p.waitCause = nil
	p.activations = 0
	p.runNanos = 0
	p.pubActivations = 0
	p.pubRunNanos = 0
	p.killed = false
	p.timerEv = nil
}

// Method registers a method process: fn is invoked once at simulation
// start (unless NoInit was applied) and again whenever any event in its
// static sensitivity list fires. Method bodies must not block.
func (k *Kernel) Method(name string, fn func(), sensitivity ...*Event) *Proc {
	p := k.allocProc(name, methodProc)
	p.fn = fn
	p.attachStatic(sensitivity)
	k.procs = append(k.procs, p)
	k.enqueueInitial(p)
	return p
}

// MethodNoInit registers a method process that is not activated at
// simulation start; it runs only when its sensitivity list fires.
func (k *Kernel) MethodNoInit(name string, fn func(), sensitivity ...*Event) *Proc {
	p := k.allocProc(name, methodProc)
	p.fn = fn
	p.attachStatic(sensitivity)
	k.procs = append(k.procs, p)
	return p
}

// Trigger makes the process runnable in the current evaluate phase, or
// in the next one when the kernel is between runs: the activation Method
// gives a process at its creation, given at any later time. A process
// MethodNoInit created and Trigger made runnable before anything else
// happened is the one Method creates; a process triggered again after a
// Restore gets that initial activation once more, without being created
// anew. Triggering a runnable process does nothing.
func (p *Proc) Trigger() { p.k.makeRunnable(p) }

// Thread registers a thread process. The body runs on its own goroutine
// but the kernel resumes exactly one process at a time, so bodies need
// no locking against other processes. The body suspends itself with the
// ThreadCtx wait primitives; when it returns the process is done.
func (k *Kernel) Thread(name string, fn func(*ThreadCtx), sensitivity ...*Event) *Proc {
	p := k.allocProc(name, threadProc)
	p.tfn = fn
	p.attachStatic(sensitivity)
	if p.ctx == nil {
		p.ctx = &ThreadCtx{p: p}
	}
	k.procs = append(k.procs, p)
	k.enqueueInitial(p)
	return p
}

func (p *Proc) attachStatic(sensitivity []*Event) {
	// Copy rather than alias the variadic slice: a recycled process
	// keeps its buffer, so re-elaborating pooled procs (a checkpoint
	// session's respawn loop) is allocation-free in steady state — and
	// the caller's slice can never mutate the wiring.
	p.static = append(p.static[:0], sensitivity...)
	for _, e := range sensitivity {
		e.static = append(e.static, p)
	}
}

// dynamicFired resumes a dynamically waiting process because event e of
// its wait set fired.
func (p *Proc) dynamicFired(e *Event) {
	for _, other := range p.dynamicWait {
		if other != e {
			other.removeDynamic(p)
		}
	}
	// Truncate rather than nil so the wait-set buffer's capacity is
	// reused by the next Wait (zero allocations in steady state);
	// "dynamically waiting" is len(dynamicWait) > 0 everywhere.
	p.dynamicWait = p.dynamicWait[:0]
	p.waitCause = e
	p.k.makeRunnable(p)
}

// run executes one activation of the process during the evaluate phase.
func (p *Proc) run() {
	p.state = procRunning
	p.k.stats.Activations++
	instrumented := p.k.instr != nil
	var t0 time.Time
	if instrumented {
		p.activations++
		t0 = time.Now()
	}
	switch p.kind {
	case methodProc:
		p.fn()
		if p.state == procRunning {
			p.state = procWaiting
		}
	case threadProc:
		if p.w == nil {
			p.w = p.k.acquireWorker()
			p.w.p = p
		}
		p.w.resume <- struct{}{}
		<-p.w.yield
		if p.state == procDone {
			p.k.releaseWorker(p.w)
			p.w = nil
		}
	}
	if instrumented {
		p.runNanos += int64(time.Since(t0))
	}
}

// suspend parks the thread body until the kernel resumes it.
func (p *Proc) suspend() {
	p.state = procWaiting
	p.w.yield <- struct{}{}
	<-p.w.resume
	if p.killed {
		panic(killedError{p.name})
	}
}

// kill unwinds a started, parked thread body and parks its worker back
// in the kernel's pool.
func (p *Proc) kill() {
	if p.kind != threadProc || p.w == nil || p.state == procDone {
		return
	}
	p.killed = true
	p.w.resume <- struct{}{}
	<-p.w.yield
	p.k.releaseWorker(p.w)
	p.w = nil
}

// ThreadCtx is the API a thread process body uses to interact with the
// kernel: suspending on events and simulated time.
type ThreadCtx struct {
	p *Proc
}

// Now returns the current simulation time.
func (c *ThreadCtx) Now() Time { return c.p.k.now }

// Wait suspends until any of the given events fires and returns the one
// that did. With no arguments it waits on the process's static
// sensitivity list.
func (c *ThreadCtx) Wait(events ...*Event) *Event {
	p := c.p
	if len(events) == 0 {
		events = p.static
		if len(events) == 0 {
			panic("sim: Wait() with no events and no static sensitivity in " + p.name)
		}
	}
	p.dynamicWait = append(p.dynamicWait[:0], events...)
	for _, e := range events {
		e.dynamic = append(e.dynamic, p)
	}
	p.waitCause = nil
	p.suspend()
	return p.waitCause
}

// WaitTime suspends for d of simulated time.
func (c *ThreadCtx) WaitTime(d Time) {
	p := c.p
	p.timerEvent().Notify(d)
	c.Wait(p.timerEv)
}
