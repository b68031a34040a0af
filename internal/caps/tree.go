package caps

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// Golden-run checkpointing for the CAPS prototype: the Runner
// implements stressor.Checkpointer, so a Campaign with Checkpoints set
// simulates the fault-free prefix once per worker session, snapshots
// kernel + model state just before each injection instant, and
// restores instead of re-simulating for every scenario forked there.
// Sessions run over stressor.TreeCore (a budget of retained
// golden-prefix nodes, one for the rolling checkpoint) with optional
// convergence early-exit against the runner's golden trajectory.

// ForkTime implements stressor.Checkpointer. A scenario forks at its
// earliest injection instant; scenarios with no faults (nothing to
// fork), an instant of zero (no prefix to amortize) or an instant past
// the horizon (never injects) fall back to the plain path, as does the
// whole runner when ReuseOff disables the reuse machinery.
//
// A scenario whose whole timeline is one action — a single permanent
// fault — forks at the canonical instant of the golden idle window it
// injects in instead: a+1, a being the last instant before Start at
// which the golden run executes anything. Nothing happens between a and
// Start, so the fork still precedes every mutation, and every instant of
// the window now shares one tree node and one stressor.TreeCore window
// memo.
func (r *Runner) ForkTime(sc fault.Scenario) (sim.Time, bool) {
	if r.ReuseOff || len(sc.Faults) == 0 {
		return 0, false
	}
	fork := stressor.ForkTime(sc)
	if fork == 0 || fork > r.horizon {
		return 0, false
	}
	if len(sc.Faults) == 1 && sc.Faults[0].Class == fault.Permanent {
		at := r.activity()
		if i, _ := slices.BinarySearch(at, fork); i > 0 {
			fork = at[i-1] + 1
		}
	}
	return fork, true
}

// activity returns, ascending, the instants up to the horizon at which
// the golden run executes anything, time zero included — recorded on
// first use by walking a dedicated golden kernel from one pending
// notification to the next. Legged RunUntil is observationally one run
// (sim's TestLeggedRunEqualsOneRun), so these are the instants every
// session's golden prefix is active at. A golden run that fails leaves
// the list empty and every fork where it was.
func (r *Runner) activity() []sim.Time {
	r.activityOnce.Do(func() {
		k := sim.NewKernel()
		defer k.Shutdown()
		Build(k, r.cfg, r.world)
		var at []sim.Time
		for t := sim.Time(0); t <= r.horizon; t = k.NextEventTime() {
			if k.RunUntil(t) != nil {
				return
			}
			at = append(at, t)
		}
		r.activityAt = at
	})
	return r.activityAt
}

// NewTreeSession implements stressor.Checkpointer. The returned
// session owns a private kernel+prototype — never a pooled slot — so
// abandoning it without Close is safe and golden state never leaks
// into the pool; its retained tree nodes come from the runner-wide
// pool and are reclaimed through Recycle.
func (r *Runner) NewTreeSession(cfg stressor.TreeConfig) stressor.CheckpointSession {
	return &capsTreeSession{r: r, cfg: cfg}
}

// capsTrajectory is the golden trajectory plus the CAPS-specific
// sidecar an early-exited run composes its final observation from:
// the golden output history (severity stream, detections) with its
// per-stride lengths, and the golden final dynamic-derived facts
// (firing, latent corruption). The digest itself covers only dynamic
// state — see System.HashState — so the sidecar is what turns "the
// dynamics re-joined golden at t" into the byte-identical full-horizon
// observation.
type capsTrajectory struct {
	tr *stressor.GoldenTrajectory
	// sevCount[i]/detCount[i] are the golden history lengths at stride
	// instant (i+1)*stride: the splice points for a run converging there.
	sevCount []int
	detCount []int
	// sev/det are the golden full-horizon output histories.
	sev []byte
	det []string
	// fired/firedAt/latent are the golden final dynamic-derived facts.
	fired   bool
	firedAt sim.Time
	latent  bool
}

// trajectory returns the golden trajectory for the given hash stride,
// recording it on first use (one dedicated golden run per distinct
// stride, shared by every session of the runner).
func (r *Runner) trajectory(stride sim.Time) (*capsTrajectory, error) {
	stride = stressor.NormalizeStride(stride, r.horizon)
	r.trajMu.Lock()
	defer r.trajMu.Unlock()
	if tj, ok := r.trajs[stride]; ok {
		return tj, nil
	}
	k := sim.NewKernel()
	defer k.Shutdown()
	sys, _ := Build(k, r.cfg, r.world)
	tj := &capsTrajectory{}
	tr, err := stressor.RecordTrajectoryFunc(k, sys, stride, r.horizon, func(i int, t sim.Time) {
		tj.sevCount = append(tj.sevCount, len(sys.Severities))
		tj.detCount = append(tj.detCount, len(sys.Detections))
	})
	if err != nil {
		return nil, err
	}
	if err := k.RunUntil(r.horizon); err != nil {
		return nil, err
	}
	tj.tr = tr
	tj.sev = append([]byte(nil), sys.Severities...)
	tj.det = append([]string(nil), sys.Detections...)
	tj.fired, tj.firedAt = sys.Fired, sys.FiredAt
	tj.latent = r.stateCorrupted(sys)
	if r.trajs == nil {
		r.trajs = make(map[sim.Time]*capsTrajectory)
	}
	r.trajs[stride] = tj
	return tj, nil
}

// capsTreeSession is one worker's tree session: a private
// kernel+prototype plus the shared TreeCore machinery. Nodes are taken
// at fork-1: restoring there and elaborating the stressor gives the
// stressor's initial activation one instant before the injection,
// which reproduces a full run's scheduling at the injection instant
// exactly (the stressor process id is the highest in both cases, so it
// evaluates last within a shared instant).
type capsTreeSession struct {
	r    *Runner
	cfg  stressor.TreeConfig
	core stressor.TreeCore
	st   stressor.Stressor
	sys  *System
	reg  *fault.Registry
	traj *capsTrajectory
}

// init lazily builds the session's kernel, prototype and (with
// early-exit on) trajectory.
func (s *capsTreeSession) init() error {
	if s.core.K != nil {
		return nil
	}
	k := sim.NewKernel()
	if s.r.metrics != nil || s.r.trace != nil {
		k.SetInstrument(&sim.Instrument{Metrics: s.r.metrics, Trace: s.r.trace})
	}
	s.sys, s.reg = Build(k, s.r.cfg, s.r.world)
	s.core = stressor.TreeCore{
		Cfg: s.cfg, K: k, Model: s.sys, Pool: &s.r.nodePool,
		Rebuild: func() { k.Reset(); s.sys.Rearm(k) },
	}
	s.core.Init()
	if s.cfg.EarlyExit {
		tr, err := s.r.trajectory(s.cfg.HashStride)
		if err != nil {
			return err
		}
		s.traj = tr
	}
	return nil
}

// Run implements stressor.CheckpointSession, producing the exact
// outcome Runner.RunScenario yields for the same scenario — for
// early-exited runs via the composite observation (live history prefix
// + golden suffix), which observe would have produced at full horizon.
func (s *capsTreeSession) Run(sc fault.Scenario, fork sim.Time) fault.Outcome {
	if out, ok := s.core.Recall(sc, fork); ok {
		return out
	}
	ob, err := s.execute(sc, fork)
	if err != nil {
		return fault.Outcome{Scenario: sc, Class: fault.DetectedSafe, Detail: "campaign error: " + err.Error()}
	}
	ob.Activated = len(sc.Faults) > 0
	class := analysis.Classify(s.r.golden, ob)
	out := fault.Outcome{Scenario: sc, Class: class, Detail: analysis.Describe(ob)}
	s.core.Remember(out)
	return out
}

// Close implements stressor.CheckpointSession, returning the retained
// nodes to the runner pool before shutting the kernel down.
// Method-only kernels hold no goroutines, so Shutdown is bookkeeping,
// not cleanup — which is what lets the campaign abandon a session
// without closing it.
func (s *capsTreeSession) Close() {
	s.core.Recycle()
	if s.core.K != nil {
		s.core.K.Shutdown()
	}
}

// Recycle implements stressor.RecyclableSession: the campaign reclaims
// an abandoned session's nodes once the runaway run has finished.
func (s *capsTreeSession) Recycle() { s.core.Recycle() }

func (s *capsTreeSession) execute(sc fault.Scenario, fork sim.Time) (analysis.Observation, error) {
	if err := s.init(); err != nil {
		return analysis.Observation{}, err
	}
	if err := s.core.Establish(fork); err != nil {
		return analysis.Observation{}, err
	}
	s.core.MarkDirty()
	s.st.Respawn(s.core.K, s.reg, sc, s.r.horizon)
	if err := s.core.Window(&s.st, sc); err != nil {
		return analysis.Observation{}, err
	}
	if s.traj != nil {
		converged, at, err := s.traj.tr.RunToHorizon(s.core.K, s.sys, &s.st)
		if err != nil {
			return analysis.Observation{}, err
		}
		if converged {
			if errs := s.st.InjectionErrors(); len(errs) > 0 {
				return analysis.Observation{}, fmt.Errorf("caps: scenario %s: %v", sc.ID, errs[0])
			}
			s.core.NoteEarlyExit(s.r.horizon - at)
			return s.composeObservation(at), nil
		}
	} else if err := s.core.K.RunUntil(s.r.horizon); err != nil {
		return analysis.Observation{}, err
	}
	if errs := s.st.InjectionErrors(); len(errs) > 0 {
		return analysis.Observation{}, fmt.Errorf("caps: scenario %s: %v", sc.ID, errs[0])
	}
	return s.r.observe(s.sys), nil
}

// composeObservation builds the full-horizon observation of a run
// whose dynamic state re-joined the golden trajectory at stride
// instant `at`: live accumulated history up to `at`, golden history
// after it. Soundness rests on two facts. First, equal dynamic state
// at `at` means the run evolves identically to golden from `at` on, so
// its remaining output history IS the golden suffix — spliced at
// GOLDEN's per-stride lengths, since the live prefix may be shorter
// (an omission fault drops severity appends without diverging the
// dynamics for long). Second, the golden run is fault-free and records
// zero detections, so the spliced detection suffix is empty in
// practice; the dedup guard below still mirrors detect()'s
// already-recorded check byte-for-byte should that ever change.
func (s *capsTreeSession) composeObservation(at sim.Time) analysis.Observation {
	tj := s.traj
	i := int(at/tj.tr.Stride) - 1
	sev := append(append([]byte(nil), s.sys.Severities...), tj.sev[tj.sevCount[i]:]...)
	det := append([]string(nil), s.sys.Detections...)
tail:
	for _, d := range tj.det[tj.detCount[i]:] {
		for _, have := range det {
			if have == d {
				continue tail
			}
		}
		det = append(det, d)
	}
	ob := analysis.Observation{
		Outputs: map[string]string{
			"fired": strconv.FormatBool(tj.fired),
			"sev":   formatSeverities(sev),
		},
		Detected:   len(det) > 0,
		DetectedBy: det,
	}
	if s.r.world.Crash {
		deadline := s.r.world.CrashStart + s.r.cfg.DeployDeadline
		switch {
		case !tj.fired:
			ob.GoalViolated = true
			ob.GoalDetail = "no deployment in crash (G2)"
		case tj.firedAt > deadline:
			ob.DeadlineMissed = true
		}
	} else if tj.fired {
		ob.GoalViolated = true
		ob.GoalDetail = "inadvertent deployment in normal operation (G1)"
	}
	ob.LatentState = tj.latent
	return ob
}
