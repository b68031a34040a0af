package caps

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stressor"
	"repro/internal/tlm"
)

// Runner executes fault-injection campaigns on the CAPS prototype: one
// golden run is cached, then each scenario runs to the horizon and its
// outcome is classified against the golden observation.
//
// By default the runner keeps a pool of kernel+system slots and re-arms
// one per scenario (Kernel.Reset + System.Rearm) instead of rebuilding
// the prototype from scratch: each concurrent RunFunc call checks out
// its own slot, so the pool grows to the campaign's peak worker count
// and every run still owns its kernel exclusively. Results are
// byte-identical to the rebuild-per-run path, which remains available
// behind ReuseOff.
type Runner struct {
	cfg     Config
	world   *World
	horizon sim.Time
	golden  analysis.Observation

	// ReuseOff disables kernel+system reuse: every scenario rebuilds
	// the prototype from scratch, as campaigns did before the reuse
	// engine. Useful to rule the reuse machinery out when debugging and
	// as the baseline in BenchmarkCampaignReuse.
	ReuseOff bool

	metrics *obs.Registry
	trace   *obs.TraceRecorder

	sites []string

	mu    sync.Mutex
	slots []*runnerSlot

	// checkpoint-tree shared state: the runner-wide node free list
	// (buffers survive session abandonment and cross-campaign reuse)
	// and the golden-trajectory cache keyed by normalized hash stride.
	nodePool stressor.NodePool
	trajMu   sync.Mutex
	trajs    map[sim.Time]*capsTrajectory
	// the golden run's activity instants (see activity), recorded once.
	activityOnce sync.Once
	activityAt   []sim.Time
}

// runnerSlot is one reusable kernel+prototype pair with its
// injection-site registry (the registry's injectors close over the
// persistent system objects, so it stays valid across re-arms).
type runnerSlot struct {
	k   *sim.Kernel
	sys *System
	reg *fault.Registry
	// st is the slot's stressor, Respawned per scenario so its record
	// and timeline buffers are reused across the campaign.
	st *stressor.Stressor

	// sinks the slot's instrument was last built with, to detect
	// Instrument() changes between runs.
	metrics *obs.Registry
	trace   *obs.TraceRecorder
}

// NewRunner builds the runner, caches the injection-site list and
// performs the golden run.
func NewRunner(cfg Config, world *World, horizon sim.Time) (*Runner, error) {
	r := &Runner{cfg: cfg, world: world, horizon: horizon}
	s := r.acquireSlot()
	r.sites = s.reg.Sites()
	r.releaseSlot(s)
	ob, _, err := r.execute(fault.Scenario{ID: "golden"})
	if err != nil {
		return nil, err
	}
	r.golden = ob
	if r.golden.GoalViolated {
		return nil, fmt.Errorf("caps: golden run violates the safety goal: %s", r.golden.GoalDetail)
	}
	return r, nil
}

// Golden exposes the cached golden observation.
func (r *Runner) Golden() analysis.Observation { return r.golden }

// Instrument attaches observability sinks: every subsequent scenario
// kernel publishes its statistics to reg and its run spans to tr.
// Both sinks are race-safe, so instrumented runners work unchanged
// inside parallel campaigns. Pass nils to detach. Call between
// campaigns, not concurrently with runs.
func (r *Runner) Instrument(reg *obs.Registry, tr *obs.TraceRecorder) {
	r.metrics = reg
	r.trace = tr
}

// Close shuts down the thread goroutines parked in the slot pool. The
// runner must not be used afterwards. Calling it is optional — pooled
// goroutines are parked, not spinning — but keeps goroutine-leak
// checkers quiet in tests.
func (r *Runner) Close() {
	r.mu.Lock()
	slots := r.slots
	r.slots = nil
	r.mu.Unlock()
	for _, s := range slots {
		s.k.Shutdown()
	}
}

// acquireSlot checks a slot out of the pool, re-arming it for a fresh
// run, or builds a new one when every slot is in use.
func (r *Runner) acquireSlot() *runnerSlot {
	r.mu.Lock()
	var s *runnerSlot
	if n := len(r.slots); n > 0 {
		s = r.slots[n-1]
		r.slots[n-1] = nil
		r.slots = r.slots[:n-1]
	}
	r.mu.Unlock()
	if s == nil {
		k := sim.NewKernel()
		sys, reg := Build(k, r.cfg, r.world)
		s = &runnerSlot{k: k, sys: sys, reg: reg}
	} else {
		s.k.Reset()
		s.sys.Rearm(s.k)
	}
	if s.metrics != r.metrics || s.trace != r.trace {
		s.metrics, s.trace = r.metrics, r.trace
		if s.metrics != nil || s.trace != nil {
			// One Instrument per kernel: the struct carries per-kernel
			// delta state and must not be shared across kernels.
			s.k.SetInstrument(&sim.Instrument{Metrics: s.metrics, Trace: s.trace})
		} else {
			s.k.SetInstrument(nil)
		}
	}
	return s
}

func (r *Runner) releaseSlot(s *runnerSlot) {
	r.mu.Lock()
	r.slots = append(r.slots, s)
	r.mu.Unlock()
}

// Sites lists the prototype's injection sites (cached at NewRunner).
func (r *Runner) Sites() []string {
	return append([]string(nil), r.sites...)
}

// Universe enumerates the exhaustive single-fault space of the
// prototype at the given activation time — the E8 fault list.
func (r *Runner) Universe(start sim.Time) []fault.Descriptor {
	var reg *fault.Registry
	if r.ReuseOff {
		k := sim.NewKernel()
		defer k.Shutdown()
		_, reg = Build(k, r.cfg, r.world)
	} else {
		s := r.acquireSlot()
		defer r.releaseSlot(s)
		reg = s.reg
	}
	models := []fault.Model{
		fault.StuckAt0, fault.StuckAt1, fault.BitFlip, fault.Open,
		fault.ShortToGround, fault.ShortToSupply, fault.ValueOffset,
		fault.Corruption, fault.Omission, fault.Babbling,
	}
	u := reg.Universe(models, fault.Permanent, start, 0, 0)
	for i := range u {
		// Give analog offsets a meaningful drift and memory faults a
		// target cell.
		switch u[i].Model {
		case fault.ValueOffset:
			u[i].Param = 0.5 // +10 g equivalent
		case fault.BitFlip, fault.StuckAt0, fault.StuckAt1:
			u[i].Address = calibScaleAddr
			u[i].Bit = 5
		}
	}
	return u
}

// execute runs one scenario to the horizon on a pooled (or, with
// ReuseOff, freshly built) prototype and returns the observation plus
// an independent copy of the propagation trace.
func (r *Runner) execute(sc fault.Scenario) (analysis.Observation, *analysis.Trace, error) {
	if r.ReuseOff {
		k := sim.NewKernel()
		defer k.Shutdown()
		if r.metrics != nil || r.trace != nil {
			k.SetInstrument(&sim.Instrument{Metrics: r.metrics, Trace: r.trace})
		}
		sys, reg := Build(k, r.cfg, r.world)
		return r.runOn(k, sys, reg, nil, sc)
	}
	s := r.acquireSlot()
	defer r.releaseSlot(s)
	return r.runOn(s.k, s.sys, s.reg, s, sc)
}

// runOn executes one scenario on an elaborated prototype. slot is nil
// on the rebuild path; when set, the slot's pooled stressor drives the
// scenario instead of a freshly allocated one.
func (r *Runner) runOn(k *sim.Kernel, sys *System, reg *fault.Registry, slot *runnerSlot, sc fault.Scenario) (analysis.Observation, *analysis.Trace, error) {
	var st *stressor.Stressor
	if len(sc.Faults) > 0 {
		if slot != nil {
			if slot.st == nil {
				slot.st = &stressor.Stressor{}
			}
			st = slot.st
			st.Respawn(k, reg, sc, r.horizon)
		} else {
			st = stressor.SpawnThread(k, reg, sc, r.horizon)
		}
	}
	if err := k.Run(r.horizon); err != nil {
		return analysis.Observation{}, nil, err
	}
	if st != nil {
		if errs := st.InjectionErrors(); len(errs) > 0 {
			return analysis.Observation{}, nil, fmt.Errorf("caps: scenario %s: %v", sc.ID, errs[0])
		}
	}
	// Clone the trace: the system's own trace buffer is re-armed for
	// the slot's next run.
	return r.observe(sys), sys.Trace.Clone(), nil
}

// formatSeverities renders the severity stream exactly as
// fmt.Sprint([]byte) would ("[1 2 3]") without fmt's reflection cost —
// observe runs once per campaign scenario.
func formatSeverities(sev []byte) string {
	buf := make([]byte, 0, 2+4*len(sev))
	buf = append(buf, '[')
	for i, v := range sev {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendUint(buf, uint64(v), 10)
	}
	buf = append(buf, ']')
	return string(buf)
}

// observe extracts the run observation.
func (r *Runner) observe(s *System) analysis.Observation {
	ob := analysis.Observation{
		Outputs: map[string]string{
			"fired": strconv.FormatBool(s.Fired),
			"sev":   formatSeverities(s.Severities),
		},
		Detected:   len(s.Detections) > 0,
		DetectedBy: s.Detections,
	}
	if r.world.Crash {
		deadline := r.world.CrashStart + r.cfg.DeployDeadline
		switch {
		case !s.Fired:
			ob.GoalViolated = true
			ob.GoalDetail = "no deployment in crash (G2)"
		case s.FiredAt > deadline:
			ob.DeadlineMissed = true
		}
	} else if s.Fired {
		ob.GoalViolated = true
		ob.GoalDetail = "inadvertent deployment in normal operation (G1)"
	}
	ob.LatentState = r.stateCorrupted(s)
	return ob
}

// stateCorrupted compares persistent state against the design values.
func (r *Runner) stateCorrupted(s *System) bool {
	if s.threshold != s.cfg.FireThreshold {
		return true
	}
	var d sim.Time
	var raw [4]byte
	p := tlm.Payload{Command: tlm.CmdRead, Address: calibScaleAddr, Data: raw[:]}
	s.calib.BTransport(&p, &d)
	val := uint32(raw[0]) | uint32(raw[1])<<8 | uint32(raw[2])<<16 | uint32(raw[3])<<24
	if val != 50 {
		return true
	}
	for _, sen := range s.sensors {
		if sen.Faulted() {
			return true
		}
	}
	return false
}

// RunScenario executes and classifies one fault scenario.
func (r *Runner) RunScenario(sc fault.Scenario) fault.Outcome {
	o, _ := r.RunScenarioTraced(sc)
	return o
}

// RunScenarioTraced is RunScenario plus the error-propagation trace
// recorded by the prototype (fault → sensor → fusion → airbag hops).
func (r *Runner) RunScenarioTraced(sc fault.Scenario) (fault.Outcome, *analysis.Trace) {
	ob, tr, err := r.execute(sc)
	if err != nil {
		return fault.Outcome{Scenario: sc, Class: fault.DetectedSafe, Detail: "campaign error: " + err.Error()}, &analysis.Trace{}
	}
	ob.Activated = len(sc.Faults) > 0
	class := analysis.Classify(r.golden, ob)
	return fault.Outcome{Scenario: sc, Class: class, Detail: analysis.Describe(ob)}, tr
}

// RunFunc adapts the runner to the campaign engine.
func (r *Runner) RunFunc() stressor.RunFunc {
	return func(sc fault.Scenario) fault.Outcome { return r.RunScenario(sc) }
}

// RunScenarioSigned is RunScenario plus the outcome's equivalence
// signature: the prototype's final-state digest (System.HashState —
// the same digest convergence early-exit trusts) folded with the
// classification. Two runs with equal signatures ended behaviorally
// indistinguishable; adaptive campaigns prune and explore on exactly
// this. A run that errors out carries no signature (the engine
// substitutes its class+detail fallback).
func (r *Runner) RunScenarioSigned(sc fault.Scenario) fault.Outcome {
	if r.ReuseOff {
		k := sim.NewKernel()
		defer k.Shutdown()
		if r.metrics != nil || r.trace != nil {
			k.SetInstrument(&sim.Instrument{Metrics: r.metrics, Trace: r.trace})
		}
		sys, reg := Build(k, r.cfg, r.world)
		ob, _, err := r.runOn(k, sys, reg, nil, sc)
		return r.classifySigned(sc, ob, sys, err)
	}
	s := r.acquireSlot()
	defer r.releaseSlot(s)
	ob, _, err := r.runOn(s.k, s.sys, s.reg, s, sc)
	return r.classifySigned(sc, ob, s.sys, err)
}

// classifySigned folds an observation into a signed outcome while the
// run's system is still checked out (the state digest must be taken
// before the slot re-arms for another scenario).
func (r *Runner) classifySigned(sc fault.Scenario, ob analysis.Observation, sys *System, err error) fault.Outcome {
	if err != nil {
		return fault.Outcome{Scenario: sc, Class: fault.DetectedSafe, Detail: "campaign error: " + err.Error()}
	}
	ob.Activated = len(sc.Faults) > 0
	class := analysis.Classify(r.golden, ob)
	return fault.Outcome{
		Scenario: sc, Class: class, Detail: analysis.Describe(ob),
		Signature: sim.MixSignature(sim.StateSignature(sys), uint64(class)),
	}
}

// SignedRunFunc adapts the signed path to the adaptive campaign
// engine. Outcomes are identical to RunFunc's except for Signature, so
// plain campaigns keep byte-stable results by using RunFunc.
func (r *Runner) SignedRunFunc() stressor.RunFunc {
	return func(sc fault.Scenario) fault.Outcome { return r.RunScenarioSigned(sc) }
}

// NewCampaign builds a campaign over this runner for one shard of the
// scenario universe (pass the zero Shard for an unsharded campaign).
// The caller layers on workers, journaling, StopOnFirst and
// observability; the runner's own instrumentation rides along.
func (r *Runner) NewCampaign(name string, shard stressor.Shard) *stressor.Campaign {
	return &stressor.Campaign{
		Name: name, Run: r.RunFunc(), Shard: shard,
		Checkpointer: r,
		Metrics:      r.metrics, Trace: r.trace,
	}
}
