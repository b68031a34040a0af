// Package stressor implements the stressor of the paper's Fig. 3
// closed loop: a UVM testbench component that takes a formal
// fault/error scenario and drives the registered injectors at the
// right simulated times — activating permanent faults once, opening
// and closing transient windows, and pulsing intermittent faults. It
// also provides the campaign engine that repeats stress tests over a
// scenario list and tallies the resulting outcome classifications
// ("repeated stress tests enable a quantitative evaluation", Sec. 3.4).
package stressor

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/uvm"
)

// Record is one injector action taken by the stressor.
type Record struct {
	Fault  fault.Descriptor
	At     sim.Time
	Inject bool // true = inject, false = revert
	Err    error
}

// Stressor schedules a scenario's descriptors onto injectors during
// the UVM run phase.
type Stressor struct {
	uvm.Comp
	registry *fault.Registry
	scenario fault.Scenario
	// Horizon bounds intermittent-fault window generation; it should
	// cover the test length.
	Horizon sim.Time

	records []Record

	// the campaign path's scratch: the timeline buffer survives Respawn,
	// so a pooled prototype slot drives scenario after scenario without
	// reallocating it.
	tl []timelineEntry

	// method-process state for the campaign path (elaborate, Respawn): the
	// timeline cursor, the self-notification event and the process. The
	// stressor runs as a method process there — a state machine with no
	// goroutine stack — so a kernel carrying one stays snapshottable
	// (sim.Snapshottable); the UVM run phase still uses the thread-bodied
	// Run below.
	k    *sim.Kernel
	ev   *sim.Event
	proc *sim.Proc
	idx  int
}

// New creates a stressor component.
func New(parent uvm.Component, name string, reg *fault.Registry) *Stressor {
	s := &Stressor{registry: reg, Horizon: sim.MS(1)}
	uvm.NewComp(s, parent, name)
	return s
}

// SpawnThread schedules a scenario on the kernel without a UVM
// environment — for virtual prototypes wired directly on the kernel
// (the CAPS and ECU campaigns use this form). Despite the historical
// name, the stressor runs as a method-process state machine, not a
// kernel thread, so the hosting kernel remains snapshottable.
func SpawnThread(k *sim.Kernel, reg *fault.Registry, sc fault.Scenario, horizon sim.Time) *Stressor {
	s := &Stressor{}
	s.elaborate(k, reg)
	s.Respawn(sc, horizon)
	return s
}

// elaborate creates the stressor's event and method process on k, which
// injects through reg: once per kernel, after the prototype's own
// elaboration, so the stressor's process id is the highest. The process
// has no initial activation; Respawn triggers it. A pooled slot
// elaborates its stressor once, before its root checkpoint is taken, so
// every restore keeps both objects and no run creates any.
func (s *Stressor) elaborate(k *sim.Kernel, reg *fault.Registry) {
	s.k, s.registry = k, reg
	// One name for every scenario: a name per scenario costs an allocation
	// a run and, under Instrument, a sim.proc.* series per scenario.
	s.ev = k.NewEvent("stressor")
	s.proc = k.MethodNoInit("stressor", s.step, s.ev)
}

// Respawn re-arms the elaborated stressor for another scenario on its
// kernel, as it stands — freshly elaborated, or restored to a checkpoint
// that holds the stressor idle — reusing its timeline buffer. Campaign
// runners that pool prototype slots keep one stressor per slot and
// Respawn it each scenario.
//
// Respawn triggers the process, the very activation a process created
// with an initial one gets: it walks the timeline from the current
// kernel time. On a fresh kernel that is time 0 (identical to the old
// thread form), and on a kernel restored to just before the first
// injection instant the first actions land at exactly the simulated
// times a full run would produce — which is what makes checkpointed
// campaign results byte-identical.
func (s *Stressor) Respawn(sc fault.Scenario, horizon sim.Time) {
	s.scenario = sc
	s.Horizon = horizon
	s.records = s.records[:0]
	s.timeline()
	s.idx = 0
	s.proc.Trigger()
}

// step is one activation of the campaign-path method process: perform
// every action due at the current time, then schedule the next one.
func (s *Stressor) step() {
	now := s.k.Now()
	for s.idx < len(s.tl) && s.tl[s.idx].at <= now {
		e := s.tl[s.idx]
		s.idx++
		var err error
		if e.inject {
			err = s.registry.Inject(e.desc)
		} else {
			err = s.registry.Revert(e.desc)
		}
		s.records = append(s.records, Record{Fault: e.desc, At: now, Inject: e.inject, Err: err})
	}
	if s.idx < len(s.tl) {
		s.ev.Notify(s.tl[s.idx].at - now)
	}
}

// ForkTime reports the earliest injection instant of the scenario —
// the latest point a golden run can be checkpointed at and still
// reproduce the scenario exactly — or 0 when the scenario carries no
// faults. Every stressor action (including transient reverts and
// intermittent windows) happens at or after this time.
func ForkTime(sc fault.Scenario) sim.Time {
	var min sim.Time
	// By index: a Descriptor is large, and a range copy of each showed as
	// 4 % of a permanent sweep's CPU.
	for i := range sc.Faults {
		if start := sc.Faults[i].Start; i == 0 || start < min {
			min = start
		}
	}
	return min
}

// SetScenario installs the fault set for the next run.
func (s *Stressor) SetScenario(sc fault.Scenario) {
	s.scenario = sc
}

// Records reports every injector action taken, in time order.
func (s *Stressor) Records() []Record { return s.records }

// Finished reports whether every scheduled timeline action has been
// performed. Convergence checks gate on this: a pending revert or
// intermittent pulse could still push a run off the golden trajectory,
// so state comparisons before the last action prove nothing.
func (s *Stressor) Finished() bool { return s.idx >= len(s.tl) }

// InjectionErrors reports actions that failed (missing injector,
// unsupported model) — these indicate a broken campaign setup, not a
// DUT failure.
func (s *Stressor) InjectionErrors() []error {
	var errs []error
	for _, r := range s.records {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("%s at %s: %w", r.Fault.Name, r.At, r.Err))
		}
	}
	return errs
}

// timelineEntry is one scheduled action.
type timelineEntry struct {
	at     sim.Time
	inject bool
	desc   fault.Descriptor
}

// timeline expands the scenario into a sorted action list (backed by
// the stressor's scratch buffer, valid until the next call).
func (s *Stressor) timeline() []timelineEntry {
	tl := s.tl[:0]
	for _, d := range s.scenario.Faults {
		switch d.Class {
		case fault.Permanent:
			tl = append(tl, timelineEntry{at: d.Start, inject: true, desc: d})
		case fault.Transient:
			tl = append(tl, timelineEntry{at: d.Start, inject: true, desc: d})
			tl = append(tl, timelineEntry{at: d.Start + d.Duration, inject: false, desc: d})
		case fault.Intermittent:
			for t := d.Start; t < s.Horizon; t += d.Period {
				tl = append(tl, timelineEntry{at: t, inject: true, desc: d})
				tl = append(tl, timelineEntry{at: t + d.Duration, inject: false, desc: d})
			}
		}
	}
	// Stable insertion sort: timelines hold a handful of entries and
	// this runs once per campaign scenario — sort.SliceStable's closure
	// and reflection swapper would allocate every call.
	for i := 1; i < len(tl); i++ {
		e := tl[i]
		j := i - 1
		for j >= 0 && tl[j].at > e.at {
			tl[j+1] = tl[j]
			j--
		}
		tl[j+1] = e
	}
	s.tl = tl
	return tl
}

// Run implements uvm.Component: walk the timeline in simulated time.
func (s *Stressor) Run(ctx *sim.ThreadCtx) {
	for _, e := range s.timeline() {
		if e.at > ctx.Now() {
			ctx.WaitTime(e.at - ctx.Now())
		}
		var err error
		if e.inject {
			err = s.registry.Inject(e.desc)
		} else {
			err = s.registry.Revert(e.desc)
		}
		s.records = append(s.records, Record{Fault: e.desc, At: ctx.Now(), Inject: e.inject, Err: err})
	}
}
