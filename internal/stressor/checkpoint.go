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
	// (the tree session's fork-window memo) — and whether forking is
	// valid for it at all. Runners return ok=false for scenario classes
	// that mutate pre-injection state (or when their own reuse machinery
	// is disabled); the campaign transparently falls back to the plain
	// RunFunc for those. Campaign workers call it concurrently.
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

// sessionHolder carries one worker's lazily created checkpoint
// session. nil holders (no Checkpointer) are valid and inert.
type sessionHolder struct{ sess CheckpointSession }

func (e *campaignExec) newHolder() *sessionHolder {
	if e.c.Checkpointer == nil {
		return nil
	}
	return &sessionHolder{}
}

// close shuts the worker's session down at the end of its run loop.
func (h *sessionHolder) close() {
	if h != nil && h.sess != nil {
		h.sess.Close()
		h.sess = nil
	}
}

// abandon drops the session without closing it: a timed-out run's
// goroutine (or a panicked run's torn kernel) still owns it, so the
// worker must not touch it again — the next eligible run builds a
// fresh one. Late writes into the abandoned session can never reach a
// result or journal because the campaign already recorded the run.
func (h *sessionHolder) abandon() { h.sess = nil }

// newSession builds the worker's tree session at the default node
// budget.
func (c *Campaign) newSession() CheckpointSession {
	return c.Checkpointer.NewTreeSession(TreeConfig{
		EarlyExit: c.EarlyExit,
		Metrics:   c.Metrics,
		Campaign:  c.Name,
	})
}

// dispatchRun executes sc on worker w, routing fork-eligible
// scenarios through the worker's checkpoint session and everything
// else through the plain RunFunc. The session is resolved here, on the
// worker goroutine, before the (possibly timeout-supervised) run
// goroutine starts — so an abandoned holder can never race with a
// late run still using the old session.
func (e *campaignExec) dispatchRun(sc fault.Scenario, w int, h *sessionHolder) (fault.Outcome, bool, bool) {
	var sess CheckpointSession
	var fork sim.Time
	if h != nil {
		// The plan needed fork times only to sort its list; asking again
		// costs less than carrying them round the loop.
		if f, ok := e.c.Checkpointer.ForkTime(sc); ok {
			if h.sess == nil {
				h.sess = e.c.newSession()
			}
			sess, fork = h.sess, f
		}
	}
	out, panicked, timedOut := e.c.runOne(e.obs, sc, w, sess, fork)
	if sess != nil && (timedOut || panicked) {
		h.abandon()
	}
	return out, panicked, timedOut
}
