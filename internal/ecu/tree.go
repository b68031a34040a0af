package ecu

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// Golden-run checkpointing for the ECU runner, mirroring caps/tree.go:
// tree sessions over stressor.TreeCore with optional convergence
// early-exit. The golden prefix here includes the dual cores executing
// the workload fault-free, parked mid-run on their quantum-sync
// notifications at the snapshot instant. ECU faults are permanent
// register/memory upsets, so most runs retain latent residue and never
// converge — the tree's value here is prefix sharing; early-exit
// mostly exercises the soundness contract (a run that does not
// converge must run out).

// ForkTime implements stressor.Checkpointer.
func (r *Runner) ForkTime(sc fault.Scenario) (sim.Time, bool) {
	if r.ReuseOff || len(sc.Faults) == 0 {
		return 0, false
	}
	fork := stressor.ForkTime(sc)
	if fork == 0 || fork > r.cfg.Horizon {
		return 0, false
	}
	return fork, true
}

// NewTreeSession implements stressor.Checkpointer. The session owns a
// private slot, never the pool's: abandoned sessions are dropped
// without Close, and golden-prefix state must not leak into pooled
// slots.
func (r *Runner) NewTreeSession(cfg stressor.TreeConfig) stressor.CheckpointSession {
	return &ecuTreeSession{r: r, cfg: cfg}
}

// trajectory returns the golden trajectory for the given hash stride,
// recording it on first use against a dedicated fault-free slot.
func (r *Runner) trajectory(stride sim.Time) (*stressor.GoldenTrajectory, error) {
	stride = stressor.NormalizeStride(stride, r.cfg.Horizon)
	r.trajMu.Lock()
	defer r.trajMu.Unlock()
	if tr, ok := r.trajs[stride]; ok {
		return tr, nil
	}
	slot := r.buildSlot()
	defer slot.k.Shutdown()
	slot.beginRun()
	tr, err := stressor.RecordTrajectory(slot.k, slot, stride, r.cfg.Horizon)
	if err != nil {
		return nil, err
	}
	if r.trajs == nil {
		r.trajs = make(map[sim.Time]*stressor.GoldenTrajectory)
	}
	r.trajs[stride] = tr
	return tr, nil
}

// earlyExitOutcome precomputes the outcome every converged run
// inherits: the golden observation with only the activation flag
// raised.
func (r *Runner) earlyExitOutcome() (fault.Classification, string) {
	r.eeOnce.Do(func() {
		ob := r.golden
		ob.Activated = true
		r.eeClass = analysis.Classify(r.golden, ob)
		r.eeDetail = analysis.Describe(ob)
	})
	return r.eeClass, r.eeDetail
}

// ecuTreeSession is one worker's tree session: a private slot plus the
// shared TreeCore machinery.
type ecuTreeSession struct {
	r    *Runner
	cfg  stressor.TreeConfig
	core stressor.TreeCore
	st   stressor.Stressor
	slot *ecuSlot
	traj *stressor.GoldenTrajectory

	// pagesRehashed/pagesRestored publish the slot's paged-state work —
	// the evidence that digest and restore cost followed the write set.
	// Both are nil without TreeConfig.Metrics; published is the tally
	// already added to them.
	pagesRehashed, pagesRestored *obs.Counter
	published                    sim.PagedStats
}

func (s *ecuTreeSession) init() error {
	if s.core.K != nil {
		return nil
	}
	slot := s.r.buildSlot()
	slot.beginRun()
	s.slot = slot
	s.core = stressor.TreeCore{
		Cfg: s.cfg, K: slot.k, Model: slot, Pool: &s.r.nodePool,
		Rebuild: func() {
			s.r.rearmSlot(slot)
			slot.beginRun()
		},
	}
	s.core.Init()
	if m := s.cfg.Metrics; m != nil {
		l := obs.L("campaign", s.cfg.Campaign)
		s.pagesRehashed = m.Counter("campaign.state_pages_rehashed", l)
		s.pagesRestored = m.Counter("campaign.state_pages_restored", l)
	}
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
// outcome Runner.RunScenario yields for the same scenario.
func (s *ecuTreeSession) Run(sc fault.Scenario, fork sim.Time) fault.Outcome {
	ob, converged, err := s.execute(sc, fork)
	s.publishPages()
	if err != nil {
		return fault.Outcome{Scenario: sc, Class: fault.DetectedSafe, Detail: "campaign error: " + err.Error()}
	}
	if converged {
		class, detail := s.r.earlyExitOutcome()
		return fault.Outcome{Scenario: sc, Class: class, Detail: detail}
	}
	ob.Activated = len(sc.Faults) > 0
	class := analysis.Classify(s.r.golden, ob)
	return fault.Outcome{Scenario: sc, Class: class, Detail: analysis.Describe(ob)}
}

// publishPages adds the pages the slot's memories re-digested and
// copied back since the last call to the campaign counters.
func (s *ecuTreeSession) publishPages() {
	if s.pagesRehashed == nil || s.slot == nil {
		return
	}
	now := s.slot.pagedStats()
	s.pagesRehashed.Add(now.PagesRehashed - s.published.PagesRehashed)
	s.pagesRestored.Add(now.PagesRestored - s.published.PagesRestored)
	s.published = now
}

// Close implements stressor.CheckpointSession.
func (s *ecuTreeSession) Close() {
	s.core.Recycle()
	if s.slot != nil {
		s.slot.k.Shutdown()
	}
}

// Recycle implements stressor.RecyclableSession.
func (s *ecuTreeSession) Recycle() { s.core.Recycle() }

func (s *ecuTreeSession) execute(sc fault.Scenario, fork sim.Time) (analysis.Observation, bool, error) {
	if err := s.init(); err != nil {
		return analysis.Observation{}, false, err
	}
	if err := s.core.Establish(fork); err != nil {
		return analysis.Observation{}, false, err
	}
	s.core.MarkDirty()
	s.st.Respawn(s.slot.k, s.slot.reg, sc, s.r.cfg.Horizon)
	if s.traj != nil {
		converged, at, err := s.traj.RunToHorizon(s.slot.k, s.slot, &s.st)
		if err != nil {
			return analysis.Observation{}, false, err
		}
		if converged {
			s.core.NoteEarlyExit(s.r.cfg.Horizon - at)
			return analysis.Observation{}, true, nil
		}
	} else if err := s.slot.k.RunUntil(s.r.cfg.Horizon); err != nil {
		return analysis.Observation{}, false, err
	}
	if errs := s.st.InjectionErrors(); len(errs) > 0 {
		return analysis.Observation{}, false, fmt.Errorf("ecu: scenario %s: %v", sc.ID, errs[0])
	}
	ob, _, _, err := s.r.finishRun(s.slot)
	return ob, false, err
}
