package sim

import "time"

// Done reports whether a thread process body has returned. Method
// processes never report done.
func (p *Proc) Done() bool { return p.state == procDone }

// Kernel returns the kernel the thread runs on.
func (c *ThreadCtx) Kernel() *Kernel { return c.p.k }

// ReadDriven returns the driven value ignoring any force, used by
// monitors that want to observe the fault-free behaviour.
func (s *Signal[T]) ReadDriven() T { return s.cur }

// Forced reports whether a fault injector currently holds the signal.
func (s *Signal[T]) Forced() bool { return s.forced }

// ProcStats reports per-process activation counts and cumulative run
// time in creation order. Counts are zero unless an Instrument with
// Metrics was attached during the runs being measured.
func (k *Kernel) ProcStats() []ProcStat {
	out := make([]ProcStat, len(k.procs))
	for i, p := range k.procs {
		out[i] = ProcStat{Name: p.name, Activations: p.activations,
			RunTime: time.Duration(p.runNanos)}
	}
	return out
}

// SetMaxDeltas overrides the per-time-point delta cycle watchdog.
func (k *Kernel) SetMaxDeltas(n uint64) { k.maxDeltas = n }

// Stopped reports whether Stop was called during the last Run.
func (k *Kernel) Stopped() bool { return k.stopped }

// Pending reports whether any activity (runnable processes, delta
// notifications or timed notifications) remains.
func (k *Kernel) Pending() bool {
	return len(k.runnable) > 0 || len(k.deltaQueue) > 0 || k.timed.Len() > 0
}

// Now reports the simulated time the checkpoint was captured at.
func (cp *Checkpoint) Now() Time { return cp.now }

// ProcStat is one process's activity record, available on any kernel
// whose instrument had Metrics attached while it ran.
type ProcStat struct {
	Name        string
	Activations uint64
	RunTime     time.Duration
}
