package stressor

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"sync"
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
// implements it; wrappers compose around it — the daemon's run store
// and the fault-injecting test writers both do.
type JournalSink interface {
	Append(journal.Entry) error
}

// Campaign repeats stress tests over a scenario list: the quantitative
// evaluation loop of Sec. 3.4.
type Campaign struct {
	// Name labels the campaign in reports and metrics.
	Name string
	// Run executes one scenario.
	Run RunFunc
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
	Dedup bool
	// Checkpoints enables golden-run checkpointing: each worker's
	// scenario stream is sorted by injection time (unless StopOnFirst
	// demands index order), the golden prefix is simulated once per
	// worker tree session, snapshotted at each distinct injection
	// instant, and restored instead of rebuilt for every scenario at
	// that instant. On its own the session retains one node — a rolling
	// checkpoint that extends with the sorted stream. Scenarios the
	// Checkpointer declines (ForkTime ok=false) transparently fall back
	// to the plain RunFunc. Results are byte-identical to a
	// non-checkpointed Execute.
	Checkpoints bool
	// Checkpointer supplies golden-run sessions; required when
	// Checkpoints is set. The CAPS and ECU runners implement it.
	Checkpointer Checkpointer
	// CheckpointTree raises the session's node budget from one to the
	// TreeConfig default: each worker session retains an LRU-budgeted
	// set of golden-prefix snapshots and establishes every scenario
	// from the deepest retained node at or before its fork, and the
	// dispatch stream is further grouped by (injection target, fault
	// class) so scenario families share prefixes. Requires Checkpoints.
	// Results are byte-identical to a one-node Execute.
	CheckpointTree bool
	// EarlyExit enables convergence early-exit inside the sessions:
	// the golden trajectory is hashed at HashStride intervals, and an
	// injected run whose state digest returns to the golden trajectory
	// (after its last scheduled fault action) terminates immediately
	// with the golden-equal classification instead of simulating to
	// the horizon. Requires Checkpoints; classifications are
	// byte-identical to full-horizon runs.
	EarlyExit bool
	// HashStride is the EarlyExit trajectory hashing interval; zero
	// lets the runner derive one from its horizon (typically
	// horizon/16). Meaningful only with EarlyExit.
	HashStride sim.Time
	// Shard restricts execution to one partition of the (post-Dedup)
	// unique-run positions: position u runs iff u mod Count == Index.
	// The zero value runs everything. A sharded Execute returns a
	// partial Result holding only this shard's outcomes (in scenario
	// order); Merge folds a complete shard set back into the result
	// the unsharded run would have produced, byte for byte.
	Shard Shard
	// Journal, when non-nil, records every completed run as one
	// append-only line so the campaign survives interruption. Under
	// Dedup only representative runs are journaled. A journal append
	// failure aborts the campaign with an error — better to stop than
	// to run scenarios that can never be resumed or merged. Callers
	// assigning a concrete pointer must take care not to store a typed
	// nil (the engine only checks Journal against the nil interface).
	Journal JournalSink
	// Resume, when non-nil, is a previously recorded journal for this
	// exact campaign (same name, shard, universe — validated before
	// any run starts). Journaled scenarios are not re-executed; their
	// recorded outcomes are replayed into the Result, which is
	// byte-identical to an uninterrupted run. The replay stamps each
	// outcome's Scenario from the universe, so RunFuncs must do the
	// same (the CAPS/ECU runners do) — the constraint Dedup already
	// imposes.
	Resume *journal.Journal
	// ScenarioTimeout, when positive, bounds each run's wall-clock
	// time. A run exceeding it is recorded as fault.Timeout and the
	// campaign moves on; the runaway RunFunc keeps its goroutine (and
	// any kernel slot it holds) so the worker continues on a fresh
	// slot, and its eventual outcome is discarded. Timeout is not a
	// failure: StopOnFirst does not trigger on it.
	ScenarioTimeout time.Duration
	// Halt, when non-nil, is polled with the number of runs completed
	// so far before each dispatch; returning true stops the campaign
	// gracefully (in-flight runs finish and are journaled, the rest
	// stay unexecuted). This is the SIGINT/deadline hook: a halted,
	// journaled campaign resumes exactly where it stopped.
	Halt func(completed int) bool

	// Metrics, when non-nil, receives campaign telemetry: a
	// campaign.scenario_duration_ns histogram, campaign.outcomes
	// counters per classification, campaign.runs / elapsed_ns /
	// panic_recoveries counters, per-worker campaign.worker_busy_ns
	// and a campaign.worker_utilization gauge — all labeled with the
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
	// off or every scenario was unique).
	DedupSavedRuns int
}

// campaignObs carries the per-Execute instrumentation state. A nil
// *campaignObs is valid and free: uninstrumented campaigns skip all
// timing calls.
type campaignObs struct {
	meter  *obs.ProgressMeter
	trace  *obs.TraceRecorder
	flight *obs.FlightRecorder
	log    *slog.Logger
	dur    *obs.Histogram
	// completed counts runs live (incremented as each run finishes) so
	// a mid-flight /metrics scrape sees the campaign moving — unlike
	// the end-of-run counters publish folds in after Execute returns.
	completed *obs.Counter
	slow      time.Duration
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
	o := &campaignObs{
		meter:  obs.NewProgressMeter(c.Name, total, c.ProgressInterval, c.Progress),
		trace:  c.Trace,
		flight: c.Flight,
		log:    c.Log,
		slow:   c.SlowScenario,
	}
	if c.Metrics != nil {
		o.dur = c.Metrics.Histogram("campaign.scenario_duration_ns", obs.L("campaign", c.Name))
		o.completed = c.Metrics.Counter("campaign.completed", obs.L("campaign", c.Name))
		if workers == 0 {
			workers = 1
		}
		o.busy = make([]time.Duration, workers)
	}
	return o
}

// runOne executes one scenario through the instrumentation shell:
// span, duration histogram, per-worker busy time, progress step. The
// do closure performs the actual run (plain safeRun or a checkpoint
// session's safeSessionRun) and reports (outcome, panicked).
func (c *Campaign) runOne(o *campaignObs, sc fault.Scenario, worker int, do func() (fault.Outcome, bool)) (fault.Outcome, bool, bool) {
	if o == nil {
		return c.execRun(sc, do)
	}
	sp := o.trace.Begin("campaign", sc.ID, worker)
	var t0 time.Time
	timed := o.dur != nil || o.busy != nil || o.slow > 0
	if timed {
		t0 = time.Now()
	}
	out, panicked, timedOut := c.execRun(sc, do)
	if timed {
		d := time.Since(t0)
		if o.dur != nil {
			o.dur.Observe(uint64(d))
		}
		if o.busy != nil {
			o.busy[worker] += d
		}
		if o.slow > 0 && d >= o.slow && !timedOut {
			o.flight.Recordf("scenario.slow", c.Name, "%s took %v (budget %v)", sc.ID, d.Round(time.Millisecond), o.slow)
			if o.log != nil {
				o.log.Warn("slow scenario", "campaign", c.Name, "scenario", sc.ID, "took", d, "budget", o.slow)
			}
		}
	}
	switch {
	case timedOut:
		o.flight.Recordf("scenario.timeout", c.Name, "%s exceeded %v", sc.ID, c.ScenarioTimeout)
		if o.log != nil {
			o.log.Warn("scenario timeout", "campaign", c.Name, "scenario", sc.ID, "budget", c.ScenarioTimeout)
		}
	case panicked:
		o.flight.Recordf("panic.recovered", c.Name, "scenario %s: %s", sc.ID, out.Detail)
		if o.log != nil {
			o.log.Warn("panic recovered", "campaign", c.Name, "scenario", sc.ID, "detail", out.Detail)
		}
	}
	if o.completed != nil {
		o.completed.Inc()
	}
	sp.Arg("class", out.Class.String()).End()
	o.meter.Step(out.Class.IsFailure())
	return out, panicked, timedOut
}

// execRun applies the wall-clock budget around safeRun. Without a
// budget it is a plain call; with one, the run proceeds on its own
// goroutine and an overrun is classified fault.Timeout while the
// campaign moves on. The abandoned goroutine finishes (or hangs) in
// the background; its late outcome is discarded, and any pooled slot
// it holds stays with it — the pool builds a fresh slot for the next
// run, so a hung simulation can never wedge a worker.
func (c *Campaign) execRun(sc fault.Scenario, do func() (fault.Outcome, bool)) (fault.Outcome, bool, bool) {
	if c.ScenarioTimeout <= 0 {
		out, panicked := do()
		return out, panicked, false
	}
	type runResult struct {
		out      fault.Outcome
		panicked bool
	}
	ch := make(chan runResult, 1)
	go func() {
		out, panicked := do()
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

// Execute runs every scenario and tallies classifications. The whole
// list is validated up front, before any (expensive) run starts, so a
// malformed scenario can never discard completed work. Outcomes keep
// scenario order regardless of Workers, and attaching Metrics, Trace
// or Progress never changes the Result. Sharding, journaling, resume
// and Halt compose with all of it: a complete shard set Merges — and
// an interrupted campaign resumes — into the exact bytes one
// uninterrupted unsharded Execute would have produced.
func (c *Campaign) Execute(scenarios []fault.Scenario) (*Result, error) {
	for _, sc := range scenarios {
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("campaign %s: %w", c.Name, err)
		}
	}
	if err := c.Shard.validate(); err != nil {
		return nil, fmt.Errorf("campaign %s: %w", c.Name, err)
	}
	if c.Checkpoints && c.Checkpointer == nil {
		return nil, fmt.Errorf("campaign %s: Checkpoints set without a Checkpointer", c.Name)
	}
	if (c.CheckpointTree || c.EarlyExit) && !c.Checkpoints {
		return nil, fmt.Errorf("campaign %s: CheckpointTree/EarlyExit require Checkpoints", c.Name)
	}
	if c.HashStride > 0 && !c.EarlyExit {
		return nil, fmt.Errorf("campaign %s: HashStride set without EarlyExit", c.Name)
	}
	workers := par.Resolve(c.Workers)

	// Dedup plan: run only the first occurrence of each distinct fault
	// content, then fan outcomes back out to the duplicate indices.
	// This happens BEFORE shard partition and resume replay, so every
	// shard computes the identical unique-run list and journals refer
	// to stable representative indices.
	run := scenarios
	var uniq, rep []int
	if c.Dedup {
		uniq, rep = dedupPlan(scenarios)
		if len(uniq) < len(scenarios) {
			run = make([]fault.Scenario, len(uniq))
			for u, idx := range uniq {
				run[u] = scenarios[idx]
			}
		} else {
			uniq, rep = nil, nil
		}
	}
	// origIdx maps a unique-run position back to its scenario index in
	// the full universe — the index space journals are keyed by.
	origIdx := func(u int) int {
		if uniq != nil {
			return uniq[u]
		}
		return u
	}

	resumed, err := c.resumeEntries(scenarios, rep)
	if err != nil {
		return nil, err
	}

	e := &campaignExec{
		c: c, run: run, origIdx: origIdx,
		outs:      make([]fault.Outcome, len(run)),
		ran:       make([]bool, len(run)),
		panicked:  make([]bool, len(run)),
		firstFail: len(run),
	}
	// Partition and replay: walk the unique-run positions once,
	// keeping only this shard's share and skipping what the journal
	// already recorded. What remains is the todo list.
	var todo []int
	for u := range run {
		if !c.Shard.owns(u) {
			continue
		}
		if ent, ok := resumed[origIdx(u)]; ok {
			cls, _ := fault.ParseClassification(ent.Class)
			e.outs[u] = fault.Outcome{Scenario: run[u], Class: cls, Detail: ent.Detail}
			e.ran[u] = true
			e.panicked[u] = ent.Panicked
			e.resumedSkips++
			if c.StopOnFirst && cls.IsFailure() && u < e.firstFail {
				e.firstFail = u
			}
			continue
		}
		todo = append(todo, u)
	}

	if c.Checkpoints {
		e.forks = make([]sim.Time, len(run))
		e.forkOK = make([]bool, len(run))
		for _, u := range todo {
			e.forks[u], e.forkOK[u] = c.Checkpointer.ForkTime(run[u])
		}
		// Sort the todo stream by injection time so each worker session
		// establishes a golden prefix once per distinct instant and
		// extends it monotonically. Results stay byte-identical because
		// outcomes, journal entries and Merge are all keyed by scenario
		// index, not dispatch order. StopOnFirst keeps index order: it
		// must execute exactly the prefix the sequential loop would.
		if !c.StopOnFirst {
			// Under CheckpointTree the stream is further grouped by the
			// first fault's (target, class) so scenario families — same
			// instant, same site — dispatch back to back and fork from
			// the same retained node while it is hottest in the LRU.
			key := func(u int) (string, fault.Class) {
				if len(run[u].Faults) == 0 {
					return "", 0
				}
				d := run[u].Faults[0]
				return d.Target, d.Class
			}
			sort.SliceStable(todo, func(i, j int) bool {
				ui, uj := todo[i], todo[j]
				if e.forks[ui] != e.forks[uj] {
					return e.forks[ui] < e.forks[uj]
				}
				if c.CheckpointTree {
					ti, ci := key(ui)
					tj, cj := key(uj)
					if ti != tj {
						return ti < tj
					}
					if ci != cj {
						return ci < cj
					}
				}
				return ui < uj
			})
		}
	}

	e.obs = c.newObs(len(todo), workers)
	if c.Log != nil {
		c.Log.Info("campaign start", "campaign", c.Name,
			"scenarios", len(scenarios), "todo", len(todo),
			"workers", workers, "resumed", e.resumedSkips)
	}
	start := time.Now()
	if workers == 0 {
		e.seq(todo)
	} else {
		e.par(todo, workers)
	}
	if e.journalErr != nil {
		c.Flight.Recordf("journal.error", c.Name, "%v", e.journalErr)
		if c.Log != nil {
			c.Log.Error("journal append failed", "campaign", c.Name, "err", e.journalErr)
		}
		return nil, fmt.Errorf("campaign %s: %w", c.Name, e.journalErr)
	}
	outs, ran, panicked := e.outs, e.ran, e.panicked
	if uniq != nil {
		outs, ran, panicked = fanOut(scenarios, uniq, rep, outs, ran, panicked)
	}
	res := c.assemble(scenarios, outs, ran, panicked)
	if uniq != nil {
		res.DedupSavedRuns = len(scenarios) - len(uniq)
	}
	elapsed := time.Since(start)
	if e.halted {
		c.Flight.Recordf("campaign.halt", c.Name, "halted after %d runs", e.completed)
		if c.Log != nil {
			c.Log.Info("campaign halted", "campaign", c.Name, "completed", e.completed)
		}
	} else if c.Log != nil {
		c.Log.Info("campaign done", "campaign", c.Name,
			"runs", len(res.Outcomes), "failures", res.Tally.Failures(),
			"panics", res.PanicRecoveries, "elapsed", elapsed)
	}
	c.publish(e, res, elapsed)
	return res, nil
}

// resumeEntries validates c.Resume against this exact campaign —
// name, shard layout, universe fingerprint, per-entry scenario IDs —
// and indexes its entries by scenario index. Any mismatch is a hard
// error before the first run: a stale or foreign journal must never
// silently poison a campaign.
func (c *Campaign) resumeEntries(scenarios []fault.Scenario, rep []int) (map[int]journal.Entry, error) {
	if c.Resume == nil {
		return nil, nil
	}
	h := c.Resume.Header
	shards := c.Shard.Count
	if shards < 1 {
		shards = 1
	}
	switch {
	case h.Adaptive:
		return nil, fmt.Errorf("campaign %s: resume journal was written by an adaptive campaign", c.Name)
	case h.Campaign != c.Name:
		return nil, fmt.Errorf("campaign %s: resume journal belongs to campaign %q", c.Name, h.Campaign)
	case h.Shards != shards || h.Shard != c.Shard.Index:
		return nil, fmt.Errorf("campaign %s: resume journal is shard %d/%d, campaign is %s", c.Name, h.Shard, h.Shards, c.Shard)
	case h.Total != len(scenarios):
		return nil, fmt.Errorf("campaign %s: resume journal covers %d scenarios, universe has %d", c.Name, h.Total, len(scenarios))
	case h.Universe != UniverseHash(scenarios):
		return nil, fmt.Errorf("campaign %s: resume journal universe %s does not match %s", c.Name, h.Universe, UniverseHash(scenarios))
	}
	m := make(map[int]journal.Entry, len(c.Resume.Entries))
	for _, ent := range c.Resume.Entries {
		if scenarios[ent.Index].ID != ent.ID {
			return nil, fmt.Errorf("campaign %s: journal entry %d is scenario %q, universe has %q", c.Name, ent.Index, ent.ID, scenarios[ent.Index].ID)
		}
		if _, ok := fault.ParseClassification(ent.Class); !ok {
			return nil, fmt.Errorf("campaign %s: journal entry %d has unknown class %q", c.Name, ent.Index, ent.Class)
		}
		if rep != nil && rep[ent.Index] != ent.Index {
			return nil, fmt.Errorf("campaign %s: journal entry %d is not a dedup representative (journal written without -dedup?)", c.Name, ent.Index)
		}
		if prev, ok := m[ent.Index]; ok && prev != ent {
			return nil, fmt.Errorf("campaign %s: journal records scenario %d twice with different outcomes", c.Name, ent.Index)
		}
		m[ent.Index] = ent
	}
	return m, nil
}

// campaignExec is the mutable state of one Execute: the shared
// outcome slots, the StopOnFirst cutoff, and the journaling/halt/
// timeout bookkeeping. Workers serialize on mu.
type campaignExec struct {
	c       *Campaign
	run     []fault.Scenario
	origIdx func(int) int
	obs     *campaignObs

	outs     []fault.Outcome
	ran      []bool
	panicked []bool

	// forks/forkOK (set only when Checkpoints) hold each unique-run
	// position's injection fork time and eligibility.
	forks  []sim.Time
	forkOK []bool

	mu           sync.Mutex
	firstFail    int // lowest failure position seen (len(run) = none)
	completed    int // runs executed this Execute (excludes resumed)
	timeouts     int
	resumedSkips int
	appends      int
	halted       bool
	journalErr   error
}

// record stores one finished run and journals it. The returned flag
// asks the parallel dispatcher to cancel (new StopOnFirst cutoff or a
// journal failure).
func (e *campaignExec) record(u int, out fault.Outcome, panicked, timedOut bool) (stop bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.outs[u], e.ran[u], e.panicked[u] = out, true, panicked
	e.completed++
	if timedOut {
		e.timeouts++
	}
	if e.c.Journal != nil && e.journalErr == nil {
		err := e.c.Journal.Append(journal.Entry{
			Index: e.origIdx(u), ID: e.run[u].ID,
			Class: out.Class.String(), Detail: out.Detail, Panicked: panicked,
		})
		if err != nil {
			e.journalErr = err
			stop = true
		} else {
			e.appends++
		}
	}
	if e.c.StopOnFirst && out.Class.IsFailure() && u < e.firstFail {
		e.firstFail = u
		stop = true
	}
	return stop
}

// seq is the classic single-goroutine loop over the todo positions
// (ascending), honoring Halt, the StopOnFirst cutoff (possibly seeded
// by a resumed failure) and journal failures.
func (e *campaignExec) seq(todo []int) {
	h := e.newHolder()
	defer h.close()
	for _, u := range todo {
		e.mu.Lock()
		stop := e.journalErr != nil || (e.c.StopOnFirst && u > e.firstFail)
		done := e.completed
		e.mu.Unlock()
		if stop {
			break
		}
		if e.c.Halt != nil && e.c.Halt(done) {
			e.halted = true
			break
		}
		out, p, to := e.dispatchRun(u, 0, h)
		e.record(u, out, p, to)
	}
}

// par fans the todo positions out to a worker pool. Dispatch is in
// order; under StopOnFirst the first failure cancels dispatch and
// workers discard queued positions past the earliest failure seen, so
// every run the sequential loop would have executed still executes
// and nothing beyond the cutoff survives into the result.
func (e *campaignExec) par(todo []int, workers int) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := e.newHolder()
			defer h.close()
			for u := range indices {
				if e.c.StopOnFirst {
					e.mu.Lock()
					skip := u > e.firstFail
					e.mu.Unlock()
					if skip {
						continue
					}
				}
				out, p, to := e.dispatchRun(u, w, h)
				if e.record(u, out, p, to) {
					cancel()
				}
			}
		}(w)
	}
dispatch:
	for _, u := range todo {
		if e.c.Halt != nil {
			e.mu.Lock()
			done := e.completed
			e.mu.Unlock()
			if e.c.Halt(done) {
				e.halted = true
				break dispatch
			}
		}
		select {
		case <-ctx.Done():
			break dispatch
		case indices <- u:
		}
	}
	close(indices)
	wg.Wait()
}

// descKey serializes every descriptor field except the name — the
// fault content that determines a deterministic run's outcome.
func descKey(d fault.Descriptor) string {
	return fmt.Sprintf("%v|%v|%v|%s|%d|%d|%g|%d|%d|%d|%g",
		d.Model, d.Class, d.Domain, d.Target, d.Bit, d.Address, d.Param,
		d.Start, d.Duration, d.Period, d.Rate)
}

// dedupPlan partitions scenarios by fault content: uniq lists the
// first-occurrence indices in original order, rep maps every index to
// its representative (itself for uniques).
func dedupPlan(scenarios []fault.Scenario) (uniq, rep []int) {
	rep = make([]int, len(scenarios))
	seen := make(map[string]int, len(scenarios))
	for i, sc := range scenarios {
		key := scenarioContentKey(sc)
		if first, ok := seen[key]; ok {
			rep[i] = first
			continue
		}
		seen[key] = i
		rep[i] = i
		uniq = append(uniq, i)
	}
	return uniq, rep
}

// fanOut expands per-unique run results back to the full scenario
// list. Each duplicate inherits its representative's outcome with its
// own Scenario stamped in; representatives ordered after a StopOnFirst
// cutoff never ran, so their duplicates stay un-ran too.
func fanOut(scenarios []fault.Scenario, uniq, rep []int, outs []fault.Outcome, ran, panicked []bool) ([]fault.Outcome, []bool, []bool) {
	pos := make(map[int]int, len(uniq)) // original index of a rep -> slot in outs
	for u, idx := range uniq {
		pos[idx] = u
	}
	fullOuts := make([]fault.Outcome, len(scenarios))
	fullRan := make([]bool, len(scenarios))
	fullPanicked := make([]bool, len(scenarios))
	for i := range scenarios {
		u := pos[rep[i]]
		if !ran[u] {
			continue
		}
		out := outs[u]
		out.Scenario = scenarios[i]
		fullOuts[i] = out
		fullRan[i] = true
		fullPanicked[i] = panicked[u]
	}
	return fullOuts, fullRan, fullPanicked
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
		reg.Counter("campaign.journal_appends", name).Add(uint64(e.appends))
	}
	if c.Resume != nil {
		reg.Counter("campaign.resumed_skips", name).Add(uint64(e.resumedSkips))
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
	if res.DedupSavedRuns > 0 {
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

// safeRun invokes the RunFunc under recoverRun. The second return
// reports whether a panic was recovered, feeding
// Result.PanicRecoveries.
func (c *Campaign) safeRun(sc fault.Scenario) (o fault.Outcome, panicked bool) {
	defer recoverRun(sc, &o, &panicked)
	return c.Run(sc), false
}

// safeSessionRun is safeRun for a checkpoint-session run.
func (c *Campaign) safeSessionRun(sess CheckpointSession, sc fault.Scenario, fork sim.Time) (o fault.Outcome, panicked bool) {
	defer recoverRun(sc, &o, &panicked)
	return sess.Run(sc, fork), false
}

// assemble folds per-index outcomes into a Result in scenario order,
// reproducing the sequential semantics bit for bit: the tally and
// outcome list stop at the first failure when StopOnFirst is set,
// and extra outcomes a parallel run completed past that point are
// discarded. PanicRecoveries counts only runs included in the result,
// so it too is identical across worker counts. Positions that never
// ran — scenarios owned by other shards, or left behind by a Halt —
// are simply skipped: a sharded or interrupted Result is the ordered
// subsequence of completed outcomes.
func (c *Campaign) assemble(scenarios []fault.Scenario, outs []fault.Outcome, ran, panicked []bool) *Result {
	res := &Result{Name: c.Name, Tally: make(fault.Tally)}
	for i := range scenarios {
		if !ran[i] {
			continue
		}
		o := outs[i]
		res.Outcomes = append(res.Outcomes, o)
		res.Tally.Add(o)
		if panicked[i] {
			res.PanicRecoveries++
		}
		if o.Class.IsFailure() && res.RunsToFirstFailure == 0 {
			res.RunsToFirstFailure = i + 1
			if c.StopOnFirst {
				break
			}
		}
	}
	return res
}

// FailureRate reports the fraction of runs that ended in unhandled
// failure.
func (r *Result) FailureRate() float64 {
	if len(r.Outcomes) == 0 {
		return 0
	}
	return float64(r.Tally.Failures()) / float64(len(r.Outcomes))
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
