package stressor

import (
	"repro/internal/fault"
	"repro/internal/sim"
)

// Checkpointer is a campaign's prototype (Campaign.Checkpointer): a
// runner that forks scenarios off a golden-run checkpoint instead of
// re-simulating the fault-free prefix. Scenarios differ only in
// when/where they inject (the paper's error-effect simulation), so the
// prefix up to the earliest injection instant is shared: a Host keeps its
// snapshots and any of its sessions forks from them.
type Checkpointer interface {
	// ForkTime reports an instant scenario sc can be forked from — a
	// golden-run time that precedes every state mutation sc performs,
	// not necessarily the latest one: a runner may name an earlier
	// instant the golden run is provably idle from, so that scenarios
	// injecting at different instants of one idle window share a fork
	// (the tree session's fork-window memo). ok is always true; the
	// campaign reads only the instant. Campaign workers call it
	// concurrently.
	ForkTime(sc fault.Scenario) (fork sim.Time, ok bool)
	// NewTreeSession creates a golden-run session. Each campaign worker
	// owns at most one live session; sessions are never shared across
	// goroutines, but the golden-prefix snapshots they fork from may be
	// the runner's, shared by all of them.
	NewTreeSession(cfg TreeConfig) CheckpointSession
	// planCache is where the campaign keeps the dispatch plans of the
	// universes it executed on this prototype (see keptPlan); nil keeps
	// none. A Host has one; a decorator that embeds a Checkpointer
	// reaches the one it wraps, which an optional-interface assertion
	// could not: a struct embedding an interface has only the
	// interface's methods.
	planCache() *planCache
}

// TreeCheckpointer is Checkpointer.
//
// Deprecated: every checkpoint session is a tree session; name Checkpointer.
type TreeCheckpointer = Checkpointer

// CheckpointSession is one worker's reusable golden-run prototype: it
// lazily simulates the golden prefix up to fork, snapshots there, and
// serves scenario runs by restoring a retained snapshot instead of
// rebuilding. Run must produce the exact Outcome a freshly built
// prototype would for the same scenario — a ReuseOff host's sessions
// build one. Close releases the session's resources; a session the
// campaign abandoned (timeout, panic) is never Closed — its kernel must
// therefore hold no goroutines.
type CheckpointSession interface {
	Run(sc fault.Scenario, fork sim.Time) fault.Outcome
	Close()
}

// runPrototype is the prototype of a campaign that has a Run and no
// Checkpointer: nothing forks, and its session — itself, so that
// building one allocates nothing — calls the function.
type runPrototype RunFunc

func (runPrototype) ForkTime(fault.Scenario) (sim.Time, bool)          { return 0, true }
func (r runPrototype) NewTreeSession(TreeConfig) CheckpointSession     { return r }
func (runPrototype) planCache() *planCache                             { return nil }
func (r runPrototype) Run(sc fault.Scenario, _ sim.Time) fault.Outcome { return r(sc) }
func (runPrototype) Close()                                            {}

// prototype is what the campaign's scenarios run on: the Checkpointer,
// or else Run behind a runPrototype; nil when it has neither.
func (c *Campaign) prototype() Checkpointer {
	if c.Checkpointer == nil && c.Run != nil {
		return runPrototype(c.Run)
	}
	return c.Checkpointer
}

// dispatchRun executes sc on worker w's session *held, forked at the
// prototype's ForkTime. The session — created on first use at the default
// node budget, signing for a Source — is resolved here, on the worker
// goroutine, before the (possibly timeout-supervised) run goroutine
// starts, so an abandoned session can never race with a late run still
// using it.
func (e *campaignExec) dispatchRun(sc fault.Scenario, w int, held *CheckpointSession) (fault.Outcome, bool, bool) {
	c := e.c
	// The plan needed fork times only to sort its list; asking again costs
	// less than carrying them round the loop.
	fork, _ := e.proto.ForkTime(sc)
	if *held == nil {
		*held = e.proto.NewTreeSession(TreeConfig{Metrics: c.Metrics, Campaign: c.Name, sign: c.Source != nil, scope: &e.scope})
	}
	out, panicked, timedOut := c.runOne(e.obs, sc, w, *held, fork)
	if timedOut || panicked {
		// Abandoned, never closed: a timed-out run's goroutine or a
		// panicked run's torn kernel still owns it, and what it writes late
		// reaches no result and no trajectory set. The next run builds a
		// fresh one.
		if a, ok := (*held).(interface{ abandon() }); ok {
			a.abandon()
		}
		*held = nil
	}
	return out, panicked, timedOut
}
