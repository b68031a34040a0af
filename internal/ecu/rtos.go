package ecu

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/tlm"
)

// Task is one periodic real-time task in the RTOS-lite model: released
// every Period, consuming WCET of execution time, due Deadline after
// release. The scheduler only models timing — the AUTOSAR-runnable
// substitution documented in DESIGN.md.
type Task struct {
	Name     string
	Period   sim.Time
	Deadline sim.Time
	WCET     sim.Time
	// ExtraDelay is added to each job's execution time — the injection
	// point for delay faults ("the right value at the wrong time").
	ExtraDelay sim.Time
}

// Scheduler runs a periodic task set on the kernel with per-task
// temporal decoupling and counts deadline misses. With quantum 0 the
// timing is exact; larger quanta trade deadline-detection accuracy
// for fewer kernel synchronizations (experiment E6).
//
// A job misses when its exact (temporally decoupled, local-time)
// completion is past its deadline, and an external monitor observes
// the miss when the kernel time at which it could see the completion
// is. That kernel time is never later than the exact completion, so
// large quanta make external deadline monitors miss true violations:
// the observed misses are a subset of the true ones. This
// observability gap is the accuracy cost of temporal decoupling that
// experiment E6 sweeps.
type Scheduler struct {
	k     *sim.Kernel
	tasks []*Task
	// Quantum is the temporal-decoupling quantum applied to every
	// task's execution-time accounting.
	Quantum sim.Time
	// Horizon bounds job generation.
	Horizon sim.Time

	misses, observedMisses int
}

// NewScheduler creates a scheduler on the kernel.
func NewScheduler(k *sim.Kernel, horizon sim.Time) *Scheduler {
	return &Scheduler{k: k, Horizon: horizon}
}

// Add registers a task. Deadline defaults to Period when zero.
func (s *Scheduler) Add(t *Task) error {
	if t.Period == 0 || t.WCET == 0 {
		return fmt.Errorf("ecu: task %q needs period and WCET", t.Name)
	}
	if t.Deadline == 0 {
		t.Deadline = t.Period
	}
	if t.WCET > t.Deadline {
		return fmt.Errorf("ecu: task %q WCET %s exceeds deadline %s", t.Name, t.WCET, t.Deadline)
	}
	s.tasks = append(s.tasks, t)
	return nil
}

// Spawn elaborates one kernel thread per task. Call before running
// the kernel.
func (s *Scheduler) Spawn() {
	for _, t := range s.tasks {
		task := t
		s.k.Thread("rtos."+task.Name, func(ctx *sim.ThreadCtx) {
			qk := tlm.NewQuantumKeeper(ctx, s.Quantum)
			for job := 0; ; job++ {
				release := sim.Time(job) * task.Period
				if release >= s.Horizon {
					return
				}
				// Wait (in decoupled time) for the release instant.
				if now := qk.CurrentTime(); now < release {
					qk.Inc(release - now)
				}
				// Execute.
				qk.Inc(task.WCET + task.ExtraDelay)
				qk.SyncIfNeeded()
				deadline := release + task.Deadline
				if qk.CurrentTime() > deadline {
					s.misses++
				}
				if ctx.Now() > deadline {
					s.observedMisses++
				}
			}
		})
	}
}

// Run spawns the tasks and advances the kernel to the horizon.
func (s *Scheduler) Run() error {
	s.Spawn()
	return s.k.Run(s.Horizon)
}

// Misses reports the deadline-miss count.
func (s *Scheduler) Misses() int { return s.misses }

// ObservedMisses reports how many true misses an external (kernel-
// time) monitor would have seen.
func (s *Scheduler) ObservedMisses() int { return s.observedMisses }
