package stressor

import (
	"repro/internal/fault"
	"repro/internal/sim"
)

// Checkpointer is what a prototype runner implements to let campaigns
// fork scenarios off a golden-run checkpoint instead of re-simulating
// the fault-free prefix (Campaign.Checkpointer). The contract mirrors
// the paper's error-effect-simulation structure: scenarios differ only
// in when/where they inject, so the prefix up to the earliest
// injection instant is shared and worth snapshotting once per runner:
// a Host keeps the snapshots and any of its sessions forks from them.
type Checkpointer interface {
	// ForkTime reports an instant scenario sc can be forked from — a
	// golden-run time that precedes every state mutation sc performs,
	// not necessarily the latest one: a runner may name an earlier
	// instant the golden run is provably idle from, so that scenarios
	// injecting at different instants of one idle window share a fork
	// (the tree session's fork-window memo) — and whether to fork it at
	// all. A Host declines (ok=false) only under ReuseOff, and the
	// campaign runs a declined scenario through its RunFunc. Campaign
	// workers call it concurrently.
	ForkTime(sc fault.Scenario) (sim.Time, bool)
	// NewTreeSession creates a golden-run session. Each campaign worker
	// owns at most one live session; sessions are never shared across
	// goroutines, but the golden-prefix snapshots they fork from may be
	// the runner's, shared by all of them.
	NewTreeSession(cfg TreeConfig) CheckpointSession
}

// TreeCheckpointer is Checkpointer: every checkpoint session is a tree
// session.
type TreeCheckpointer = Checkpointer

// CheckpointSession is one worker's reusable golden-run prototype: it
// lazily simulates the golden prefix up to fork, snapshots there, and
// serves scenario runs by restoring a retained snapshot instead of
// rebuilding. Run must produce the exact Outcome the campaign's
// RunFunc would for the same scenario. Close releases the session's
// resources; a session the campaign abandoned (timeout, panic) is
// never Closed — its kernel must therefore hold no goroutines.
type CheckpointSession interface {
	Run(sc fault.Scenario, fork sim.Time) fault.Outcome
	Close()
}

// newSession builds the worker's tree session at the default node
// budget, signing its outcomes for a Source.
func (c *Campaign) newSession() CheckpointSession {
	return c.Checkpointer.NewTreeSession(TreeConfig{
		EarlyExit: c.EarlyExit,
		Metrics:   c.Metrics,
		Campaign:  c.Name,
		sign:      c.Source != nil,
	})
}

// dispatchRun executes sc on worker w: through the worker's checkpoint
// session *held, created on first use, when the Checkpointer forks it;
// through the RunFunc when there is no Checkpointer or it declines (the
// ReuseOff oracle). The session is resolved here, on the worker
// goroutine, before the (possibly timeout-supervised) run goroutine
// starts — so an abandoned session can never race with a late run still
// using it.
func (e *campaignExec) dispatchRun(sc fault.Scenario, w int, held *CheckpointSession) (fault.Outcome, bool, bool) {
	var sess CheckpointSession
	var fork sim.Time
	// The plan needed fork times only to sort its list; asking again costs
	// less than carrying them round the loop.
	if cp := e.c.Checkpointer; cp != nil {
		if f, ok := cp.ForkTime(sc); ok {
			if *held == nil {
				*held = e.c.newSession()
			}
			sess, fork = *held, f
		}
	}
	out, panicked, timedOut := e.c.runOne(e.obs, sc, w, sess, fork)
	if sess != nil && (timedOut || panicked) {
		// Abandoned, never closed: a timed-out run's goroutine or a
		// panicked run's torn kernel still owns it, and what it writes late
		// reaches no result. The next forked run builds a fresh one.
		*held = nil
	}
	return out, panicked, timedOut
}
