package stressor

import (
	"sync"

	"repro/internal/fault"
	"repro/internal/sim"
)

// Checkpointer is what a prototype runner implements to let campaigns
// fork scenarios off a golden-run checkpoint instead of re-simulating
// the fault-free prefix (Campaign.Checkpointer). The contract mirrors
// the paper's error-effect-simulation structure: scenarios differ only
// in when/where they inject, so the prefix up to the earliest
// injection instant is shared and worth snapshotting once per worker.
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
	// NewTreeSession creates a private golden-run session retaining up
	// to cfg.MaxNodes golden-prefix snapshots. Each campaign worker owns
	// at most one live session; sessions are never shared across
	// goroutines. The returned session should also implement
	// RecyclableSession so the campaign can reclaim its node buffers
	// after abandonment.
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
		EarlyExit:  c.EarlyExit,
		HashStride: c.HashStride,
		Metrics:    c.Metrics,
		Campaign:   c.Name,
	})
}

// recycleGuard reclaims an abandoned session's retained tree nodes
// once it is safe to do so, for a run under a wall-clock budget — the
// only kind that can still be going when its worker gives up on it.
// Abandonment then races with the runaway run, which may still be
// mutating the session, so whichever of {abandon, run completion}
// happens second performs the Recycle: the late goroutine when it
// finally returns from a timeout, the worker for a panic recovered
// within the budget. Node buffers are fully overwritten on reuse, so
// reclaiming from a torn kernel is safe.
type recycleGuard struct {
	mu        sync.Mutex
	sess      RecyclableSession
	done      bool
	abandoned bool
}

// finished marks the run complete (called on the run goroutine, after
// any panic was recovered).
func (g *recycleGuard) finished() {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.done = true
	if g.abandoned {
		g.sess.Recycle()
	}
}

// abandon marks the session dropped (called on the worker goroutine).
func (g *recycleGuard) abandon() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.abandoned = true
	if g.done {
		g.sess.Recycle()
	}
}

// dispatchRun executes sc on worker w, routing fork-eligible
// scenarios through the worker's checkpoint session and everything
// else through the plain RunFunc. The session is resolved here, on the
// worker goroutine, before the (possibly timeout-supervised) run
// goroutine starts — so an abandoned holder can never race with a
// late run still using the old session. Without a budget nothing is
// built per run: the session is called on this goroutine and has
// returned by the time a recovered panic abandons it.
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
	rs, recyclable := sess.(RecyclableSession)
	var guard *recycleGuard
	if recyclable && e.c.ScenarioTimeout > 0 {
		guard = &recycleGuard{sess: rs}
	}
	out, panicked, timedOut := e.c.runOne(e.obs, sc, w, sess, fork, guard)
	if sess != nil && (timedOut || panicked) {
		h.abandon()
		switch {
		case guard != nil:
			guard.abandon()
		case recyclable:
			rs.Recycle()
		}
	}
	return out, panicked, timedOut
}
