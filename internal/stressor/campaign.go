package stressor

import (
	"fmt"
	"log/slog"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
)

// RunFunc executes one complete fault-injected simulation for the
// given scenario — building a fresh virtual prototype, injecting,
// running and classifying — and returns the outcome. Campaigns stay
// agnostic of what the prototype is; the CAPS and ECU experiments
// supply their own RunFuncs. A RunFunc handed to a parallel campaign
// (Workers != 0) must be safe for concurrent invocation: each call
// should build its own kernel and system, as the CAPS runner does.
type RunFunc func(sc fault.Scenario) fault.Outcome

// WorkersAuto asks Execute for one worker per available CPU.
const WorkersAuto = par.Auto

// JournalSink receives one entry per completed run. *journal.Writer
// implements it, buffering entries until its buffer fills, Flush or
// Close; wrappers compose around it — the fault-injecting test writers
// do. Whoever opened the writer closes it after Execute, on every path:
// the entries still buffered reach the file only then.
type JournalSink interface {
	Append(journal.Entry) error
}

// Campaign repeats stress tests under an interchangeable strategy: the
// quantitative evaluation loop of Sec. 3.4 and the one stressor of
// Fig. 3. The scenarios come either from the list handed to Execute or,
// one at a time, from Source; both run through the same worker pool,
// run shell, journal and telemetry.
type Campaign struct {
	// Name labels the campaign in reports, metrics and journals.
	Name string
	// Run executes each scenario of a campaign without a Checkpointer,
	// and is read only when Checkpointer is nil. With a Source, a Run that
	// populates Outcome.Signature (a runner's RunScenarioSigned) gives the
	// campaign real behavioral equivalence classes, as sessions do; any
	// other gets a class+detail fallback signature.
	Run RunFunc
	// Source, when non-nil, replaces the scenario list (Execute takes
	// nil): scenarios are pulled from it while at most lookahead of them
	// are outstanding, and every outcome is handed back through Observe
	// in strict proposal order. That ordering is the whole determinism
	// story under feedback — the source sees the same observation
	// sequence inline and on N workers, so a fixed strategy seed yields a
	// byte-identical Result at every worker count. Every delivered
	// outcome carries a non-zero signature, Result.Adaptive holds the
	// proposal census, and journals are keyed by proposal sequence number
	// (create them from JournalHeader). A Source does not compose with
	// Shard (its universe only exists as the campaign unfolds) or with
	// StopOnFirst; Execute refuses those.
	Source ScenarioSource
	// MaxRuns budgets a Source's simulated runs (proposals Dedup answers
	// are free); 0 runs until the source exhausts — only safe with a
	// self-budgeting source.
	MaxRuns int
	// Fingerprint identifies the Source's configuration (e.g. the seed
	// universe's UniverseHash). JournalHeader stamps it into created
	// journals and, when non-empty, Resume's header must carry it.
	Fingerprint string
	// StopOnFirst aborts the campaign at the first unhandled failure —
	// the "how many runs until the critical effect is found" metric of
	// experiment E4. Under parallel execution the campaign still stops
	// at the earliest-indexed failure, exactly as sequential execution
	// would.
	StopOnFirst bool
	// Workers selects the execution mode: 0 runs scenarios
	// sequentially on the calling goroutine, N > 0 fans them out to a
	// pool of N goroutines, and WorkersAuto sizes the pool to
	// GOMAXPROCS. Scenario runs are independent (each builds a fresh
	// prototype), so the Result is identical for every setting.
	Workers int
	// Dedup collapses scenarios whose fault content is identical —
	// same target site, model, class, timing and parameters, ignoring
	// only the scenario/descriptor names — into one simulation run
	// whose outcome is fanned back to every duplicate index.
	// Result.DedupSavedRuns reports the saving. Requires the RunFunc
	// to be deterministic in the fault content (true for the CAPS and
	// ECU runners); an outcome that embeds the scenario ID in an error
	// detail would leak the representative's ID to its duplicates.
	// On a Source it is equivalence pruning: a proposal whose content
	// matches an already-delivered run is answered from a memo of
	// delivered outcomes — no simulation, no budget, no journal entry.
	Dedup bool
	// Checkpointer is the prototype every scenario runs on, each on its
	// worker's session: the scenario stream is sorted by fork time
	// (unless StopOnFirst demands index order) and grouped by fault
	// content so scenario families dispatch back to back, and the
	// sessions establish every scenario from the deepest golden-prefix
	// snapshot at or before its fork instead of re-simulating the prefix.
	// Results are byte-identical to a freshly built prototype's — a
	// ReuseOff runner's sessions build one — signatures included. The
	// CAPS and ECU runners implement it, and keep the dispatch order and
	// shard owners of the universes they ran for the next Execute of an
	// equal universe. A campaign without one runs Run in index order.
	Checkpointer Checkpointer
	// Deprecated: Checkpoints, CheckpointTree and EarlyExit are never
	// read; the Checkpointer alone decides whether a campaign forks, and
	// a run with no permanent fault is always checked for convergence.
	Checkpoints, CheckpointTree, EarlyExit bool
	// Shard restricts execution to one partition of the (post-Dedup)
	// unique-run positions: the Index-th of Count contiguous ranges of
	// them in injection-time order (see Shard). The zero value runs
	// everything. A sharded Execute returns a partial Result holding
	// only this shard's outcomes (in scenario order); Merge folds a
	// complete shard set back into the result the unsharded run would
	// have produced, byte for byte.
	Shard Shard
	// Journal, when non-nil, records every completed run as one
	// append-only record so the campaign survives interruption. Under
	// Dedup only representative runs are journaled. A journal append
	// failure aborts the campaign with an error — better to stop than
	// to run scenarios that can never be resumed or merged. A
	// *journal.Writer writes its buffer only when the buffer is full, so
	// a failed write surfaces at the Append that fills it or at the
	// writer's Flush or Close, not at the Append of the entry it loses:
	// the caller must check Close's error too. Callers assigning a
	// concrete pointer must take care not to store a typed nil (the
	// engine only checks Journal against the nil interface).
	Journal JournalSink
	// Resume, when non-nil, is a previously recorded journal for this
	// exact campaign (same name, shard, universe — validated before
	// any run starts). Journaled scenarios are not re-executed; their
	// recorded outcomes are replayed into the Result, which is
	// byte-identical to an uninterrupted run. The replay stamps each
	// outcome's Scenario from the universe, so RunFuncs must do the
	// same (the CAPS/ECU runners do) — the constraint Dedup already
	// imposes. With a Source the canonical proposal loop re-runs (the
	// source must be configured identically — same seed, same budget)
	// and proposals the journal covers feed their recorded outcome and
	// signature to Observe instead of simulating.
	Resume *journal.Journal
	// ScenarioTimeout, when positive, bounds each run's wall-clock
	// time. A run exceeding it is recorded as fault.Timeout and the
	// campaign moves on; the runaway run keeps its goroutine and its
	// session (and any kernel slot that holds), so the worker continues
	// on a fresh session, and its eventual outcome is discarded. Timeout
	// is not a failure: StopOnFirst does not trigger on it.
	ScenarioTimeout time.Duration
	// Halt, when non-nil, is polled with the number of outcomes
	// delivered so far — before anything runs, then after every delivery
	// while a position is still to be handed out (a list) or before every
	// proposal (a Source); returning true stops the campaign gracefully:
	// every worker finishes the run it is in and starts nothing more, what
	// ran is delivered and journaled, the rest stay unexecuted. This is
	// the SIGINT/deadline hook: a halted, journaled campaign resumes
	// exactly where it stopped. Always called from the goroutine that
	// called Execute, like Journal and Source.
	Halt func(completed int) bool

	// Metrics, when non-nil, receives campaign telemetry: a
	// campaign.scenario_duration_ns histogram, campaign.outcomes
	// counters per classification, campaign.runs / elapsed_ns /
	// panic_recoveries counters, per-worker campaign.worker_busy_ns
	// and a campaign.worker_utilization gauge, plus — with a Source —
	// the campaign.signatures_unique and campaign.scenarios_per_sec
	// gauges and the campaign.pruned_equiv counter, all labeled with the
	// campaign name. The Result itself is byte-identical with or
	// without Metrics attached.
	Metrics *obs.Registry
	// Trace, when non-nil, records one span per scenario run on the
	// executing worker's trace row (Chrome trace-event timeline).
	Trace *obs.TraceRecorder
	// Flight, when non-nil, receives low-volume operational marks —
	// scenario timeouts, recovered panics, slow-scenario warnings, halt
	// and journal failures — into the daemon's flight-recorder ring.
	// Unlike Metrics it records *events*, not aggregates, so a wedged
	// campaign leaves a readable last-moments trail.
	Flight *obs.FlightRecorder
	// SlowScenario, when positive, marks any single run whose wall
	// clock meets or exceeds it in the flight recorder and the log —
	// the "which scenario is dragging this campaign" probe.
	SlowScenario time.Duration
	// Log, when non-nil, receives structured engine events (start,
	// finish, halt, timeouts, panics, journal failures) via log/slog.
	// The Result is identical with or without it.
	Log *slog.Logger
	// Progress, when non-nil, receives rate-limited live updates
	// (completed/total, failures, rate, ETA) while the campaign runs.
	Progress obs.ProgressFunc
	// ProgressInterval overrides the update rate limit (0 selects
	// obs.DefaultProgressInterval, negative disables limiting).
	ProgressInterval time.Duration
}

// Result is a finished campaign.
type Result struct {
	Name     string
	Outcomes []fault.Outcome
	Tally    fault.Tally
	// RunsToFirstFailure is the 1-based index of the first unhandled
	// failure, or 0 when none occurred.
	RunsToFirstFailure int
	// PanicRecoveries counts runs whose RunFunc panicked and was
	// recovered. Those runs tally as detected-safe (the campaign
	// reached a safe state by construction), but an infrastructure
	// crash is not a genuine detection — a non-zero count flags the
	// campaign setup, not the DUT.
	PanicRecoveries int
	// DedupSavedRuns counts scenarios that were not simulated because
	// Dedup folded them into an earlier identical run (0 when Dedup is
	// off or every scenario was unique). With a Source it counts the
	// proposals answered from the memo of delivered outcomes.
	DedupSavedRuns int
	// Halted reports that Halt stopped the campaign before its plan
	// ran out: the Result is partial, and resumable from the journal.
	Halted bool
	// Adaptive is the proposal census of a Source-driven campaign, whose
	// Outcomes hold every delivered proposal — simulated, pruned and
	// resumed — in proposal order. Nil for a scenario list.
	Adaptive *Census
}

// Census counts what became of a Source's proposals.
type Census struct {
	// Simulated counts runs this Execute actually executed.
	Simulated int
	// Resumed counts proposals answered from the resume journal.
	Resumed int
	// UniqueSignatures counts distinct outcome signatures delivered.
	UniqueSignatures int
}

// campaignObs carries the per-Execute instrumentation state. A nil
// *campaignObs is valid and free: uninstrumented campaigns skip all
// timing calls.
type campaignObs struct {
	meter *obs.ProgressMeter
	dur   *obs.Histogram
	// completed counts runs live (incremented as each run finishes) so
	// a mid-flight /metrics scrape sees the campaign moving — unlike
	// the end-of-run counters publish folds in after Execute returns.
	completed *obs.Counter
	// busy accumulates per-worker run time; each worker touches only
	// its own slot and the slice is read after the pool joins.
	busy []time.Duration
}

// newObs builds the instrumentation state, or nil when the campaign
// carries no observability hooks.
func (c *Campaign) newObs(total, workers int) *campaignObs {
	if c.Metrics == nil && c.Trace == nil && c.Progress == nil &&
		c.Flight == nil && c.Log == nil {
		return nil
	}
	o := &campaignObs{meter: obs.NewProgressMeter(c.Name, total, c.ProgressInterval, c.Progress)}
	if c.Metrics != nil {
		o.dur = c.Metrics.Histogram("campaign.scenario_duration_ns", obs.L("campaign", c.Name))
		o.completed = c.Metrics.Counter("campaign.completed", obs.L("campaign", c.Name))
		o.busy = make([]time.Duration, max(workers, 1))
	}
	return o
}

// runOne executes one scenario through the instrumentation shell:
// span, duration histogram, per-worker busy time, progress step. The
// run itself goes to sess at fork.
func (c *Campaign) runOne(o *campaignObs, sc fault.Scenario, worker int, sess CheckpointSession, fork sim.Time) (fault.Outcome, bool, bool) {
	if o == nil {
		return c.execRun(sc, sess, fork)
	}
	sp := c.Trace.Begin("campaign", sc.ID, worker)
	var t0 time.Time
	timed := o.dur != nil || o.busy != nil || c.SlowScenario > 0
	if timed {
		t0 = time.Now()
	}
	out, panicked, timedOut := c.execRun(sc, sess, fork)
	if timed {
		d := time.Since(t0)
		if o.dur != nil {
			o.dur.Observe(uint64(d))
		}
		if o.busy != nil {
			o.busy[worker] += d
		}
		if c.SlowScenario > 0 && d >= c.SlowScenario && !timedOut {
			c.Flight.Recordf("scenario.slow", c.Name, "%s took %v (budget %v)", sc.ID, d.Round(time.Millisecond), c.SlowScenario)
			if c.Log != nil {
				c.Log.Warn("slow scenario", "campaign", c.Name, "scenario", sc.ID, "took", d, "budget", c.SlowScenario)
			}
		}
	}
	switch {
	case timedOut:
		c.Flight.Recordf("scenario.timeout", c.Name, "%s exceeded %v", sc.ID, c.ScenarioTimeout)
		if c.Log != nil {
			c.Log.Warn("scenario timeout", "campaign", c.Name, "scenario", sc.ID, "budget", c.ScenarioTimeout)
		}
	case panicked:
		c.Flight.Recordf("panic.recovered", c.Name, "scenario %s: %s", sc.ID, out.Detail)
		if c.Log != nil {
			c.Log.Warn("panic recovered", "campaign", c.Name, "scenario", sc.ID, "detail", out.Detail)
		}
	}
	if o.completed != nil {
		o.completed.Inc()
	}
	if sp != nil {
		sp.Arg("class", out.Class.String()).End()
	}
	o.meter.Step(out.Class.IsFailure())
	return out, panicked, timedOut
}

// execRun applies the wall-clock budget around safeRun. Without a
// budget it is a plain call; with one, the run proceeds on its own
// goroutine and an overrun is classified fault.Timeout while the
// campaign moves on. The abandoned goroutine finishes (or hangs) in
// the background; its late outcome is discarded, and its session, with
// any pooled slot that holds, stays with it — the worker's next run is
// on a fresh session, so a hung simulation can never wedge a worker.
func (c *Campaign) execRun(sc fault.Scenario, sess CheckpointSession, fork sim.Time) (fault.Outcome, bool, bool) {
	if c.ScenarioTimeout <= 0 {
		out, panicked := c.safeRun(sc, sess, fork)
		return out, panicked, false
	}
	type runResult struct {
		out      fault.Outcome
		panicked bool
	}
	ch := make(chan runResult, 1)
	go func() {
		out, panicked := c.safeRun(sc, sess, fork)
		ch <- runResult{out, panicked}
	}()
	t := time.NewTimer(c.ScenarioTimeout)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.out, r.panicked, false
	case <-t.C:
		return fault.Outcome{
			Scenario: sc,
			Class:    fault.Timeout,
			Detail:   fmt.Sprintf("scenario exceeded wall-clock budget %v", c.ScenarioTimeout),
		}, false, true
	}
}

// Execute runs the campaign — every scenario of the list, or what
// Source proposes until it exhausts, MaxRuns is spent or Halt fires —
// and tallies classifications. A list is validated whole up front,
// before any (expensive) run starts, so a malformed scenario can never
// discard completed work. Outcomes keep scenario (or proposal) order
// regardless of Workers, and attaching Metrics, Trace or Progress never
// changes the Result. Sharding, journaling, resume and Halt compose
// with all of it: a complete shard set Merges — and an interrupted
// campaign resumes — into the exact bytes one uninterrupted unsharded
// Execute would have produced.
func (c *Campaign) Execute(scenarios []fault.Scenario) (*Result, error) {
	if err := c.validate(scenarios); err != nil {
		return nil, fmt.Errorf("campaign %s: %w", c.Name, err)
	}
	workers := par.Resolve(c.Workers)

	e := newExec(c, scenarios)
	resumed, err := c.resumeEntries(e)
	if err != nil {
		return nil, err
	}
	var p plan
	var planned, replayed int
	if c.Source == nil {
		l := newListPlan(e)
		p, planned, replayed = l, len(l.todo), e.answered[byJournal]
	} else {
		e.slots = make([]slot, 0, c.MaxRuns)
		sp := &sourcePlan{campaignExec: e, resumed: resumed, sigs: map[uint64]struct{}{}}
		if c.Dedup {
			sp.memo = newContentIndex(0)
		}
		p = sp
		planned = max(c.MaxRuns-len(resumed), 0) // what is left of the budget
		replayed = len(resumed)
	}

	e.obs = c.newObs(planned, workers)
	if c.Log != nil {
		c.Log.Info("campaign start", "campaign", c.Name,
			"scenarios", len(scenarios), "todo", planned,
			"workers", workers, "resumed", replayed)
	}
	start := time.Now()
	e.loop(p, workers)
	e.scope.leave()
	if e.err != nil {
		c.Flight.Recordf("campaign.abort", c.Name, "%v", e.err)
		if c.Log != nil {
			c.Log.Error("campaign aborted", "campaign", c.Name, "err", e.err)
		}
		return nil, fmt.Errorf("campaign %s: %w", c.Name, e.err)
	}
	res := c.assemble(e.fanOut())
	res.DedupSavedRuns, res.Halted = len(scenarios)-e.dedup.len()+e.answered[byMemo], e.halted
	res.Adaptive = p.census()
	elapsed := time.Since(start)
	if e.halted {
		c.Flight.Recordf("campaign.halt", c.Name, "halted after %d runs", e.delivered)
		if c.Log != nil {
			c.Log.Info("campaign halted", "campaign", c.Name, "completed", e.delivered)
		}
	} else if c.Log != nil {
		c.Log.Info("campaign done", "campaign", c.Name,
			"runs", len(res.Outcomes), "failures", res.Tally.Failures(),
			"panics", res.PanicRecoveries, "elapsed", elapsed)
	}
	c.publish(e, res, elapsed)
	return res, nil
}

// validate refuses, before anything runs, a malformed scenario and
// every knob combination the engine cannot honor — among them what a
// Source does not compose with (see Campaign.Source).
func (c *Campaign) validate(scenarios []fault.Scenario) error {
	for _, sc := range scenarios {
		if err := sc.Validate(); err != nil {
			return err
		}
	}
	if err := c.Shard.validate(); err != nil {
		return err
	}
	switch {
	case c.prototype() == nil:
		return fmt.Errorf("neither Run nor Checkpointer")
	case c.Source == nil:
		return nil
	case len(scenarios) > 0:
		return fmt.Errorf("both a Source and a scenario list")
	case c.MaxRuns < 0:
		return fmt.Errorf("negative MaxRuns %d", c.MaxRuns)
	case c.Shard.Enabled():
		return fmt.Errorf("a Source does not shard: its universe only exists as the campaign unfolds")
	case c.StopOnFirst:
		return fmt.Errorf("a Source does not compose with StopOnFirst")
	}
	return nil
}

// JournalHeader is the header a journal for this campaign over
// scenarios (nil with a Source) must carry — the one Resume is checked
// against. A list is identified by its shard layout, size and universe
// hash; a Source by its MaxRuns budget and Fingerprint, with entries
// keyed by proposal sequence number and signed by the sim.Digest its
// header names. A list's hash is the one its Checkpointer's kept plan of
// the list holds (universePlan.fingerprint), and UniverseHash when it
// keeps none.
func (c *Campaign) JournalHeader(scenarios []fault.Scenario) journal.Header {
	var p *universePlan
	if c.Source == nil && c.Checkpointer != nil {
		p = c.Checkpointer.planCache().find(scenarios, c.Dedup)
	}
	return c.journalHeader(scenarios, p)
}

// journalHeader is JournalHeader with a list's plan p at hand — the one
// its Execute holds, so resuming derives no plan and hashes no universe
// twice (nil: hash the universe afresh).
func (c *Campaign) journalHeader(scenarios []fault.Scenario, p *universePlan) journal.Header {
	if c.Source != nil {
		h := c.Shard.JournalHeader(c.Name, c.MaxRuns, c.Fingerprint)
		h.Adaptive, h.Digest = true, sim.Digest
		return h
	}
	return c.Shard.JournalHeader(c.Name, len(scenarios), p.fingerprint(scenarios))
}

// newExec is one Execute's state before any replay: a list's plan, its
// positions bound to the scenarios, and the positions the Execute holds
// slots for, in their dispatch order (a sharded list's own only). A
// Source plans nothing.
func newExec(c *Campaign, scenarios []fault.Scenario) *campaignExec {
	e := &campaignExec{c: c, proto: c.prototype()}
	if c.Source == nil {
		e.plan = e.planList(scenarios)
		e.dedup = e.plan.bind(scenarios)
		e.view = e.plan.view(scenarios, c.Shard)
	}
	e.slots = make([]slot, e.view.own.len())
	e.more.L = &e.mu
	e.cutoff.Store(math.MaxInt64)
	e.scope.refs = 1
	return e
}

// planList is the plan of the list scenarios: the one the Checkpointer
// kept, or a new one, which it keeps from now on. A Run has no fork to
// sort by, and under StopOnFirst the campaign must execute exactly the
// prefix the sequential loop would: both dispatch in index order and
// keep nothing.
func (e *campaignExec) planList(scenarios []fault.Scenario) *universePlan {
	c := e.c
	if c.Checkpointer == nil || c.StopOnFirst {
		return newUniversePlan(scenarios, c.Dedup, nil)
	}
	cache := c.Checkpointer.planCache()
	if p := cache.find(scenarios, c.Dedup); p != nil {
		e.planReused = true
		return p
	}
	// Sorted by fork time so each worker session establishes a golden
	// prefix once per distinct instant and extends it monotonically — a
	// claimed span is a run of neighbouring forks. Results stay
	// byte-identical because outcomes, journal entries and Merge are all
	// keyed by scenario index, not dispatch order. Within one fork the
	// stream is grouped by the first fault's content — target and class
	// first — so scenario families dispatch back to back and fork from the
	// same retained node while it is hottest in the LRU, and the members of
	// one family that differ in Start alone (a fork window's instants, see
	// the session's window) stay adjacent. The plan records those window
	// families, and claim never splits one between two workers: the one
	// session that runs a family simulates its first member and recalls
	// the rest.
	p := newUniversePlan(scenarios, c.Dedup, func(sc fault.Scenario) sim.Time {
		fork, _ := c.Checkpointer.ForkTime(sc)
		return fork
	})
	cache.keep(p, scenarios)
	return p
}

// resumeEntries validates c.Resume against this exact campaign — kind,
// name, shard layout and partition rule, size or budget, universe
// fingerprint, a Source's signature digest — and adds a list's journal
// to e's slots (a ShardSet); a Source's it indexes by proposal sequence
// number. Any mismatch is a hard error before the first run: a stale or
// foreign journal must never silently poison a campaign.
func (c *Campaign) resumeEntries(e *campaignExec) (map[int]journal.Entry, error) {
	if c.Resume == nil {
		return nil, nil
	}
	want := c.journalHeader(e.dedup.scenarios, e.plan)
	if want.Universe == "" {
		want.Universe = c.Resume.Header.Universe // a Source without a Fingerprint
	}
	if err := c.Resume.Header.Match(want); err != nil {
		return nil, fmt.Errorf("campaign %s: resume %w", c.Name, err)
	}
	if c.Source == nil {
		_, err := (&ShardSet{e: e, recorded: make([]int, 1)}).Add(0, c.Resume.Entries, nil)
		return nil, err
	}
	// A proposal's ID is only known once the replay proposes it; next
	// checks it then.
	m := make(map[int]journal.Entry, len(c.Resume.Entries))
	for _, ent := range c.Resume.Entries {
		if _, ok := fault.ParseClassification(ent.Class); !ok {
			return nil, fmt.Errorf("campaign %s: journal entry %d has unknown class %q", c.Name, ent.Index, ent.Class)
		}
		if prev, ok := m[ent.Index]; ok && prev != ent {
			return nil, fmt.Errorf("campaign %s: journal records run %d twice with different outcomes", c.Name, ent.Index)
		}
		m[ent.Index] = ent
	}
	return m, nil
}

// lookahead bounds a Source's outstanding proposals: the source
// observes outcome i before it proposes scenario i+lookahead. It is
// part of a campaign's deterministic identity — changing it changes
// what an adaptive source proposes — and deliberately not a function of
// Workers.
const lookahead = 8

// maxChunk caps the guided share of a list one claim takes. A chunk is
// what a worker runs between two trips to the shared state, and what
// the coordinator gets back — and journals, and polls Halt after — in
// one piece, so it also scales the Halt and StopOnFirst overshoot. On
// more than one worker a span runs past it to the end of the fork-window
// family it stopped in (claim): those members are recalls, not runs.
const maxChunk = 16

// slot is one position's result. The worker that ran the position
// writes it; the coordinator reads it once the span holding the position
// has come back.
type slot struct {
	out      fault.Outcome
	ran      bool
	panicked bool
	timedOut bool
}

// answer says what answered a delivered outcome.
type answer uint8

const (
	bySimulation answer = iota
	// byMemo: a Dedup source's memo of delivered outcomes.
	byMemo
	byJournal
	numAnswers
)

// span is the claimed indices [lo, hi) on their way back to the
// coordinator.
type span struct{ lo, hi int }

// plan is the half of a campaign that differs between a scenario list
// and a Source: which positions are published when, where a position's
// scenario and result live, and in what order results are delivered and
// what a delivery feeds back. The loop drives one without knowing which
// it has.
type plan interface {
	// open publishes the plan's first positions: all of a list, a
	// source's first lookahead proposals.
	open()
	// job is what the worker that claimed index i runs: the scenario, its
	// position (what a StopOnFirst cutoff compares) and where the result
	// goes. Workers call it concurrently, each for indices it claimed.
	job(i int) (pos int, sc fault.Scenario, res *slot)
	// retire takes back a span its worker is done with — run, skipped or
	// left unstarted by a closed range — and delivers, in the plan's
	// delivery order, what that lets it deliver: journal entry (commit),
	// result, whatever the plan keeps of the outcome, the next positions.
	retire(sp span)
	// census is the finished campaign's Result.Adaptive.
	census() *Census
}

// campaignExec is the state of one Execute that every campaign has;
// what only a list or only a source needs lives in its plan. It is
// shared between the coordinator — the goroutine that called Execute —
// and the workers through the hand-out fields alone (DESIGN §7): the
// coordinator publishes indices and retires spans, a worker claims a
// span, runs it and hands it back. Everything else belongs to the
// coordinator, which alone appends to the journal, polls Halt, talks to
// the Source and counts.
type campaignExec struct {
	c     *Campaign
	proto Checkpointer // what every scenario runs on (Campaign.prototype)
	// scope is what the sessions share; its first reference is the
	// Execute's own, dropped once the loop is over.
	scope campaignScope
	dedup dedupPlan
	// view is the positions slots stand for, in their dispatch order:
	// every one of dedup's, or a sharded list's own.
	view shardView
	obs  *campaignObs

	// slots holds the results by position of view: preallocated for a
	// list, whose workers write their own positions' slots; grown in
	// proposal order by the coordinator for a source.
	slots []slot

	// The hand-out. Indices below published may be claimed; claimed is the
	// next one a worker takes, with one atomic add per span — or, where
	// family is set, a compare-and-swap. final says published will not
	// grow again, closed that nothing further is to start; mu and more are
	// where a worker whose index is not published yet waits for either.
	published, claimed atomic.Int64
	final, closed      atomic.Bool
	mu                 sync.Mutex
	more               sync.Cond
	// family is each hand-out index's fork-window family (universePlan.family)
	// for a list whose plan has one of two or more members; nil for any
	// other list and for a source. Only the coordinator writes it, before
	// any worker starts.
	family []int32
	// cutoff is the lowest failing position under StopOnFirst (MaxInt64:
	// none). The worker that classifies a failure lowers it; every worker
	// reads it to skip the positions past it.
	cutoff atomic.Int64

	delivered int // outcomes delivered by this Execute (Halt's argument)
	// answered counts the outcomes in the result by what answered them;
	// byJournal includes the replayed list entries newListPlan counts.
	answered [numAnswers]int
	timeouts int
	halted   bool
	// planReused says the list's dispatch plan was one the Checkpointer
	// kept (campaign.plan_reused).
	planReused bool
	err        error
	// plan is a list's universe plan, whose positions dedup binds; nil
	// for a Source.
	plan *universePlan
}

// publish makes the next n indices claimable.
func (e *campaignExec) publish(n int) {
	e.mu.Lock()
	e.published.Add(int64(n))
	e.mu.Unlock()
	e.more.Broadcast()
}

// finish says nothing further will be published: a worker that finds no
// index left goes home.
func (e *campaignExec) finish() {
	e.mu.Lock()
	e.final.Store(true)
	e.mu.Unlock()
	e.more.Broadcast()
}

// close stops the pool: no position starts after a worker has seen it,
// claimed or not. What is running finishes and is retired.
func (e *campaignExec) close() {
	e.closed.Store(true)
	e.finish()
}

// claim takes the next span for one of workers workers (0: the
// coordinator itself), waiting for its first index to be published; ok is
// false once there is nothing left to take. The size comes from what is
// left. While the range still grows — a source proposing — it is 1: its
// outcomes are delivered in proposal order and every one of them may be
// the one the next proposal waits for. Once the range is final — a list,
// published whole — it is a guided share of the rest, a quarter of an
// even split, so the spans shrink towards the end and the workers finish
// together; the coordinator running inline takes 1 to retire (and poll
// Halt after) every run.
//
// On more than one worker, a list with window families (family) extends
// the share to the end of the family it stopped in, so that one worker's
// session runs a whole family and answers all but its first member from
// its memo; the compare-and-swap that takes such a span still hands every
// index out exactly once. The list was published whole before any worker
// started, so nothing waits.
func (e *campaignExec) claim(workers int) (sp span, ok bool) {
	if workers > 1 && e.family != nil {
		end := int(e.published.Load())
		for {
			lo := e.claimed.Load()
			if int(lo) >= end {
				return span{}, false
			}
			sp = span{int(lo), int(lo) + guided(end-int(lo), workers)}
			for sp.hi < end && e.family[sp.hi] == e.family[sp.hi-1] {
				sp.hi++
			}
			if e.claimed.CompareAndSwap(lo, int64(sp.hi)) {
				return sp, !e.closed.Load()
			}
		}
	}
	n := 1
	if workers > 0 && e.final.Load() {
		n = guided(int(e.published.Load()-e.claimed.Load()), workers)
	}
	sp.lo = int(e.claimed.Add(int64(n))) - n
	if int(e.published.Load()) <= sp.lo {
		e.mu.Lock()
		for int(e.published.Load()) <= sp.lo && !e.final.Load() {
			e.more.Wait()
		}
		e.mu.Unlock()
	}
	sp.hi = min(sp.lo+n, int(e.published.Load()))
	return sp, sp.lo < sp.hi && !e.closed.Load()
}

// guided is a claim's share of left positions for workers workers.
func guided(left, workers int) int { return min(max(left/(4*workers), 1), maxChunk) }

// lowerCutoff moves the StopOnFirst cutoff down to a failing position.
func (e *campaignExec) lowerCutoff(pos int) {
	for {
		cur := e.cutoff.Load()
		if int64(pos) >= cur || e.cutoff.CompareAndSwap(cur, int64(pos)) {
			return
		}
	}
}

// halt polls Campaign.Halt; the plans ask before handing out more.
func (e *campaignExec) halt() bool {
	e.halted = e.c.Halt != nil && e.c.Halt(e.delivered)
	return e.halted
}

// commit is the part of a delivery the plans share: journal a fresh
// simulation — sig is what its entry carries — and count the answer. It
// reports false, having closed the range, when the campaign has failed:
// this append did, or something did earlier and the loop only drains.
// Better to stop than to run scenarios that can never be resumed or
// merged.
func (e *campaignExec) commit(pos int, id string, s *slot, by answer, sig uint64) bool {
	if by == bySimulation && e.err == nil && e.c.Journal != nil {
		e.err = e.c.Journal.Append(journal.Entry{
			Index: e.view.own.index(pos), ID: id, Sig: sig,
			Class: s.out.Class.String(), Detail: s.out.Detail, Panicked: s.panicked,
		})
	}
	if e.err != nil {
		e.close()
		return false
	}
	e.answered[by]++
	e.delivered++
	if s.timedOut {
		e.timeouts++
	}
	return true
}

// listPlan publishes a scenario list's unique-run positions whole, in
// dispatch order, and delivers (and journals) each span as it comes
// back, never behind a slower one: outcomes are keyed by position, so
// order is free.
type listPlan struct {
	*campaignExec
	// todo holds the positions to run, in dispatch order; index i of the
	// hand-out is position todo[i].
	todo []int
}

// newListPlan plans a scenario list whose slots hold the replayed
// journal: it counts what was replayed and leaves the rest in todo, in
// the view's dispatch order, and their window families in e.family. It
// walks the slots the Execute holds, a shard's own and no other.
func newListPlan(e *campaignExec) *listPlan {
	l := &listPlan{campaignExec: e}
	n := 0 // positions to run
	for u := range e.slots {
		switch s := &e.slots[u]; {
		case !s.ran:
			n++
		default:
			if e.c.StopOnFirst && s.out.Class.IsFailure() {
				e.lowerCutoff(u)
			}
			e.answered[byJournal]++
		}
	}
	order, family := e.view.order, e.view.family
	if order != nil && n == len(order) {
		// The plan runs whole; todo and family are only ever read.
		l.todo, e.family = order, family
		return l
	}
	l.todo = make([]int, 0, n)
	if family != nil {
		e.family = make([]int32, 0, n)
	}
	for i := range e.slots {
		u := i
		if order != nil {
			u = order[i]
		}
		if !e.slots[u].ran {
			l.todo = append(l.todo, u)
			if family != nil {
				e.family = append(e.family, family[i])
			}
		}
	}
	return l
}

// slotOf is the slot that holds position u of e's dedup plan; nil when
// another shard owns u.
func (e *campaignExec) slotOf(u int) *slot {
	if !e.c.Shard.Enabled() {
		return &e.slots[u]
	}
	if k, ok := slices.BinarySearch(e.view.own.uniq, e.dedup.index(u)); ok {
		return &e.slots[k]
	}
	return nil
}

// fanOut is e's slots as assemble takes them: one per scenario of the
// universe e holds an outcome for, in scenario order, and each one's
// scenario index (nil: its place in the list).
func (e *campaignExec) fanOut() ([]slot, []int) {
	switch d := e.dedup; {
	case !e.c.Shard.Enabled():
		return d.fanOut(e.slots), nil
	case d.uniq == nil: // positions are scenario indices
		return e.slots, e.view.own.uniq
	default:
		full := make([]slot, d.len())
		for k, i := range e.view.own.uniq {
			full[d.pos[i]] = e.slots[k]
		}
		return d.fanOut(full), nil
	}
}

// unclaimed reports whether a position worth running has yet to be
// claimed. Under StopOnFirst todo is in index order: past the cutoff
// nothing can reach the result.
func (l *listPlan) unclaimed() bool {
	i := int(l.claimed.Load())
	return i < len(l.todo) && int64(l.todo[i]) <= l.cutoff.Load()
}

func (l *listPlan) open() {
	if l.unclaimed() && !l.halt() {
		l.publish(len(l.todo))
	}
	l.finish()
}

func (l *listPlan) job(i int) (int, fault.Scenario, *slot) {
	pos := l.todo[i]
	return pos, l.view.own.scenario(pos), &l.slots[pos]
}

// retire delivers the positions of the span that ran. Halt is polled
// after each, as long as the answer can still keep a position from being
// claimed; what a worker had already claimed when it fires is stopped by
// the closed range, one position later.
func (l *listPlan) retire(sp span) {
	for _, pos := range l.todo[sp.lo:sp.hi] {
		s := &l.slots[pos]
		if !s.ran || !l.commit(pos, l.view.own.scenario(pos).ID, s, bySimulation, 0) {
			continue
		}
		if !l.closed.Load() && l.unclaimed() && l.halt() {
			l.close()
		}
	}
}

func (l *listPlan) census() *Census { return nil }

// run is one proposal of a source on its trip round the loop.
type run struct {
	// seq is the proposal's sequence number.
	seq int
	sc  fault.Scenario
	// digest is sc's contentDigest, set for a Dedup source only.
	digest uint64
	// by says what answers the proposal. What the journal or the memo
	// answers comes with res filled and done set; a simulation gets res
	// from the worker that claimed it and done when its span is retired.
	by   answer
	res  slot
	done bool
}

// sourcePlan pulls proposals from Campaign.Source and delivers them in
// proposal order: what the source proposes next depends on what it has
// observed, so early finishers are parked until every proposal before
// them has been delivered.
type sourcePlan struct {
	*campaignExec
	// resumed is the resume journal by sequence number, memo and memoOut
	// (Dedup only) the delivered contents and, by memo position, the
	// outcome last delivered for each, sigs the signatures seen.
	resumed map[int]journal.Entry
	memo    *contentIndex
	memoOut []fault.Outcome
	sigs    map[uint64]struct{}
	// parked holds the proposals not yet delivered, by sequence number;
	// tickets points index i of the hand-out at the proposal it runs —
	// only proposals that need a simulation are published. Fewer than
	// lookahead proposals are ever undelivered, so both wrap at it.
	parked  [lookahead]run
	tickets [lookahead]*run

	proposed int // proposals taken from the source: the next sequence number
	head     int // sequence number of the next proposal to deliver
	budgeted int // proposals counted against MaxRuns
}

// next pulls one scenario from the source. The proposal comes back
// already answered when the resume journal or the memo covers it. The
// memo holds delivered outcomes only, so the prune decision at proposal
// n depends on exactly the outcomes delivered before n was proposed — a
// pure function of the canonical schedule next(0..W-1), [deliver(i),
// next(W+i)]... at every worker count.
func (s *sourcePlan) next() (r run, ok bool) {
	if s.c.MaxRuns > 0 && s.budgeted >= s.c.MaxRuns || s.halt() {
		return r, false
	}
	if r.sc, ok = s.c.Source.Next(); !ok {
		return r, false
	}
	if s.err = r.sc.Validate(); s.err != nil {
		return r, false
	}
	r.seq = s.proposed
	s.proposed++
	if s.memo != nil {
		r.digest = contentDigest(r.sc.Faults)
	}
	if ent, ok := s.resumed[r.seq]; ok {
		if ent.ID != r.sc.ID {
			s.err = fmt.Errorf("journal proposal %d is scenario %q, replay proposed %q (strategy configuration changed?)", r.seq, ent.ID, r.sc.ID)
			return r, false
		}
		cls, _ := fault.ParseClassification(ent.Class)
		r.res = slot{out: fault.Outcome{Scenario: r.sc, Class: cls, Detail: ent.Detail, Signature: ent.Sig}, ran: true, panicked: ent.Panicked}
		r.by, r.done = byJournal, true
	} else if i, ok := s.memo.find(r.sc.Faults, r.digest); ok {
		// Free: a pruned proposal does not count against MaxRuns.
		out := s.memoOut[i]
		out.Scenario = r.sc
		r.res, r.by, r.done = slot{out: out, ran: true}, byMemo, true
		return r, true
	}
	s.budgeted++
	return r, true
}

// advance keeps the canonical schedule going as far as the answers at
// hand allow: top the undelivered proposals up to lookahead, deliver the
// head if it is answered, repeat — so every delivery is followed by
// exactly one proposal. It returns with the head out for simulation, or
// the source spent and everything delivered.
func (s *sourcePlan) advance() {
	for {
		for !s.final.Load() && s.proposed-s.head < lookahead {
			r, ok := s.next()
			if !ok {
				s.finish()
				break
			}
			at := &s.parked[r.seq%lookahead]
			*at = r
			if !r.done {
				s.tickets[s.published.Load()%lookahead] = at
				s.publish(1)
			}
		}
		r := &s.parked[s.head%lookahead]
		if s.head == s.proposed || !r.done {
			return
		}
		s.deliver(r)
		s.head++
	}
}

func (s *sourcePlan) open() { s.advance() }

func (s *sourcePlan) job(i int) (int, fault.Scenario, *slot) {
	r := s.tickets[i%lookahead]
	return r.seq, r.sc, &r.res
}

func (s *sourcePlan) retire(sp span) {
	for i := sp.lo; i < sp.hi; i++ {
		s.tickets[i%lookahead].done = true
	}
	s.advance()
}

// deliver retires the head proposal: signature, journal entry, result,
// memo, and the observation the source's next proposal may rest on.
func (s *sourcePlan) deliver(r *run) {
	if !r.res.ran {
		return // the range closed on a failure before a worker got to it
	}
	out := r.res.out
	if out.Signature == 0 {
		out.Signature = fallbackSignature(out)
	}
	if !s.commit(r.seq, r.sc.ID, &r.res, r.by, out.Signature) {
		return
	}
	s.slots = append(s.slots, slot{out: out, ran: true, panicked: r.res.panicked})
	if s.memo != nil && r.by != byMemo {
		if i, added := s.memo.put(r.sc.Faults, r.digest); added {
			s.memoOut = append(s.memoOut, out)
		} else {
			s.memoOut[i] = out
		}
	}
	s.sigs[out.Signature] = struct{}{}
	s.c.Source.Observe(out)
}

func (s *sourcePlan) census() *Census {
	return &Census{Simulated: s.answered[bySimulation], Resumed: s.answered[byJournal], UniqueSignatures: len(s.sigs)}
}

// drain is a worker's whole life, and the coordinator's when there is no
// pool: claim a span, run its positions on worker w, hand it back —
// over back, or straight to the plan — until nothing is left to claim.
// The closed range is checked before every position, not every span.
func (e *campaignExec) drain(p plan, w, workers int, back chan<- span) {
	var sess CheckpointSession // the worker's, from its first run
	defer func() {
		if sess != nil {
			sess.Close()
		}
	}()
	for {
		sp, ok := e.claim(workers)
		if !ok {
			return
		}
		for i := sp.lo; i < sp.hi && !e.closed.Load(); i++ {
			pos, sc, res := p.job(i)
			if int64(pos) > e.cutoff.Load() {
				continue // a StopOnFirst failure below it: moot
			}
			out, panicked, timedOut := e.dispatchRun(sc, w, &sess)
			*res = slot{out: out, ran: true, panicked: panicked, timedOut: timedOut}
			if e.c.StopOnFirst && out.Class.IsFailure() {
				e.lowerCutoff(pos)
			}
		}
		if back == nil {
			p.retire(sp)
		} else {
			back <- sp
		}
	}
}

// loop is the campaign's one dispatch/deliver loop (DESIGN §7): publish,
// claim, retire. The plan publishes positions; the workers — or, without
// a pool, the coordinator right here — claim spans of them, run them and
// write each result where the plan keeps it; the coordinator retires the
// spans as they come back. Nothing is handed to a worker and no worker
// is ever woken per position: the pool and the coordinator meet only at
// the claim counter and on back.
func (e *campaignExec) loop(p plan, workers int) {
	p.open()
	if workers == 0 {
		e.drain(p, 0, 0, nil)
		return
	}
	// Room for one finished span per worker: a worker claims its next span
	// without waiting for the coordinator to get round to its last one,
	// and no further ahead, which bounds what Halt has to let finish.
	back := make(chan span, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.drain(p, w, workers, back)
		}(w)
	}
	go func() {
		wg.Wait()
		close(back)
	}()
	for sp := range back {
		p.retire(sp)
	}
}

// fallbackSignature derives an outcome signature for RunFuncs that do
// not compute one: classification folded with the detail text. Coarser
// than a model-state digest — outcomes that differ only in final state
// collapse — but still non-zero and deterministic.
func fallbackSignature(o fault.Outcome) uint64 {
	h := sim.NewStateHash()
	h.Int(int(o.Class))
	h.Str(o.Detail)
	return sim.MixSignature(h.Sum())
}

// publish folds the finished result into the registry. Counters are
// derived from the assembled Result (not the raw runs), so the
// recorded outcome counts are deterministic across worker counts; the
// journal/resume/timeout counters reflect this Execute's actual work.
func (c *Campaign) publish(e *campaignExec, res *Result, elapsed time.Duration) {
	o := e.obs
	if o != nil {
		o.meter.Finish()
	}
	if c.Metrics == nil {
		return
	}
	reg := c.Metrics
	name := obs.L("campaign", c.Name)
	if c.Journal != nil {
		reg.Counter("campaign.journal_appends", name).Add(uint64(e.answered[bySimulation]))
	}
	if c.Resume != nil {
		reg.Counter("campaign.resumed_skips", name).Add(uint64(e.answered[byJournal]))
	}
	if c.ScenarioTimeout > 0 {
		reg.Counter("campaign.timeouts", name).Add(uint64(e.timeouts))
	}
	for class, n := range res.Tally {
		reg.Counter("campaign.outcomes", name, obs.L("class", class.String())).Add(uint64(n))
	}
	reg.Counter("campaign.runs", name).Add(uint64(len(res.Outcomes)))
	reg.Counter("campaign.elapsed_ns", name).Add(uint64(elapsed.Nanoseconds()))
	if res.PanicRecoveries > 0 {
		reg.Counter("campaign.panic_recoveries", name).Add(uint64(res.PanicRecoveries))
	}
	if e.planReused {
		reg.Counter("campaign.plan_reused", name).Inc()
	}
	if a := res.Adaptive; a != nil {
		reg.Gauge("campaign.signatures_unique", name).Set(float64(a.UniqueSignatures))
		reg.Counter("campaign.pruned_equiv", name).Add(uint64(res.DedupSavedRuns))
		if elapsed > 0 && a.Simulated > 0 {
			reg.Gauge("campaign.scenarios_per_sec", name).Set(float64(a.Simulated) / elapsed.Seconds())
		}
	} else if res.DedupSavedRuns > 0 {
		reg.Counter("campaign.dedup_saved_runs", name).Add(uint64(res.DedupSavedRuns))
	}
	var total time.Duration
	for w, b := range o.busy {
		reg.Counter("campaign.worker_busy_ns", name, obs.L("worker", strconv.Itoa(w))).Add(uint64(b))
		total += b
	}
	if elapsed > 0 && len(o.busy) > 0 {
		util := total.Seconds() / (elapsed.Seconds() * float64(len(o.busy)))
		reg.Gauge("campaign.worker_utilization", name).Set(util)
	}
}

// recoverRun is the deferred half of every safeRun: it converts a
// panicking run into a detected-safe outcome so one crashing scenario
// cannot take down the whole campaign. The Detail format is shared by
// both engines and the session path, so a panicking scenario
// classifies identically wherever it ran.
func recoverRun(sc fault.Scenario, o *fault.Outcome, panicked *bool) {
	if r := recover(); r != nil {
		*panicked = true
		*o = fault.Outcome{
			Scenario: sc,
			Class:    fault.DetectedSafe,
			Detail:   fmt.Sprintf("campaign panic recovered: %v", r),
		}
	}
}

// safeRun runs sc on sess from fork under recoverRun. The second return
// reports whether a panic was recovered, feeding Result.PanicRecoveries.
func (c *Campaign) safeRun(sc fault.Scenario, sess CheckpointSession, fork sim.Time) (o fault.Outcome, panicked bool) {
	defer recoverRun(sc, &o, &panicked)
	return sess.Run(sc, fork), false
}

// assemble folds per-index slots into a Result in scenario order,
// reproducing the sequential semantics bit for bit: the tally and
// outcome list stop at the first failure when StopOnFirst is set,
// and extra outcomes a parallel run completed past that point are
// discarded. PanicRecoveries counts only runs included in the result,
// so it too is identical across worker counts. Positions that never
// ran — scenarios left behind by a Halt — are simply skipped, and a
// shard's slots are those of its own scenarios, index naming each one's
// scenario index (nil: slot i is scenario i): a sharded or interrupted
// Result is the ordered subsequence of completed outcomes.
func (c *Campaign) assemble(slots []slot, index []int) *Result {
	res := &Result{Name: c.Name, Tally: make(fault.Tally)}
	ran := 0
	for i := range slots {
		if slots[i].ran {
			ran++
		}
	}
	if ran > 0 {
		// One allocation: grown by append, a sweep's outcome list is copied
		// a dozen times on the goroutine every worker has just stopped for.
		res.Outcomes = make([]fault.Outcome, 0, ran)
	}
	for i, s := range slots {
		if !s.ran {
			continue
		}
		o := s.out
		res.Outcomes = append(res.Outcomes, o)
		res.Tally.Add(o)
		if s.panicked {
			res.PanicRecoveries++
		}
		if o.Class.IsFailure() && res.RunsToFirstFailure == 0 {
			res.RunsToFirstFailure = i + 1
			if index != nil {
				res.RunsToFirstFailure = index[i] + 1
			}
			if c.StopOnFirst {
				break
			}
		}
	}
	return res
}

// FirstFailure returns the earliest unhandled failure in the result,
// if any. Unlike indexing Outcomes with RunsToFirstFailure (which is
// a position in the full scenario order), this is also correct for
// sharded or interrupted results, whose outcome list is a
// subsequence of the universe.
func (r *Result) FirstFailure() (fault.Outcome, bool) {
	for _, o := range r.Outcomes {
		if o.Class.IsFailure() {
			return o, true
		}
	}
	return fault.Outcome{}, false
}

// ByClass returns the outcomes with the given classification.
func (r *Result) ByClass(c fault.Classification) []fault.Outcome {
	var out []fault.Outcome
	for _, o := range r.Outcomes {
		if o.Class == c {
			out = append(out, o)
		}
	}
	return out
}
