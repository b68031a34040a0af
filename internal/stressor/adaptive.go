package stressor

// The adaptive campaign engine: instead of executing a pre-enumerated
// scenario list, it pulls scenarios one at a time from a feedback-
// driven source (scenario.Novelty, or any Strategy), fans them across
// the worker pool, and delivers every outcome back through Observe in
// strict proposal order. That ordering rule is the whole determinism
// story — the source sees exactly the same observation sequence
// whether the runs execute inline or on N workers, so a fixed strategy
// seed yields byte-identical results at every worker count (the
// stressortest adaptive axis pins this on both prototypes).
//
// Two signature-plane features ride on the ordered loop:
//
//   - equivalence pruning: scenarios whose fault content matches an
//     already-delivered run are not re-simulated — the memoized outcome
//     is replayed under the new scenario's identity, without consuming
//     the simulated-run budget;
//   - outcome signatures: every delivered outcome carries a non-zero
//     64-bit equivalence fingerprint (the RunFunc's model-state digest
//     when provided, a class+detail fallback otherwise), which is what
//     novelty-guided sources feed on and what the journal persists so
//     a resumed campaign can rebuild its strategy state.
//
// Scope: the adaptive engine deliberately does not compose with Dedup
// (pruning subsumes it), Shard, Checkpoints/CheckpointTree/EarlyExit
// or StopOnFirst — those are fixed-universe optimizations; the
// adaptive universe only exists as the campaign unfolds.

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
)

// ScenarioSource feeds an adaptive campaign: Next proposes scenarios,
// Observe receives each delivered outcome. scenario.Strategy satisfies
// it (the interface is restated here so the engine does not depend on
// the strategy package). The engine serializes all Next/Observe calls
// on one goroutine, in proposal order — implementations need no
// locking, and deterministic implementations make the whole campaign
// deterministic.
type ScenarioSource interface {
	Next() (fault.Scenario, bool)
	Observe(fault.Outcome)
}

// DefaultLookahead is the proposal window when Lookahead is unset:
// how many proposals may be in flight before the oldest outcome must
// be delivered back to the source.
const DefaultLookahead = 8

// AdaptiveCampaign runs the closed strategy⇄simulation loop of Fig. 3
// with pipelined execution. See the package comment above for the
// ordering and signature semantics.
type AdaptiveCampaign struct {
	// Name labels the campaign in reports, metrics and journals.
	Name string
	// Run executes one scenario (same contract as Campaign.Run; must
	// be concurrency-safe when Workers != 0). RunFuncs that populate
	// Outcome.Signature (the runners' signed variants) give the
	// campaign real behavioral equivalence classes; plain RunFuncs get
	// a class+detail fallback signature.
	Run RunFunc
	// Source proposes scenarios and learns from outcomes.
	Source ScenarioSource
	// Workers selects execution like Campaign.Workers: 0 sequential,
	// N > 0 a pool, WorkersAuto sizes to GOMAXPROCS. The result is
	// identical for every setting.
	Workers int
	// Lookahead bounds in-flight proposals (default DefaultLookahead).
	// It is part of the campaign's deterministic identity: the source
	// observes outcome i before proposing scenario i+Lookahead, so
	// changing it changes what adaptive sources propose. It is NOT a
	// function of Workers for exactly that reason.
	Lookahead int
	// MaxRuns budgets simulated runs (pruned proposals are free);
	// 0 means run until the source exhausts — only safe with a
	// self-budgeting source.
	MaxRuns int
	// Prune short-circuits proposals whose fault content (descriptor
	// fields except names) matches an already-delivered run: the
	// memoized outcome is replayed, no simulation happens, no budget
	// is consumed, nothing is journaled. Requires a content-
	// deterministic RunFunc, like Campaign.Dedup.
	Prune bool
	// Journal, when non-nil, records each simulated run keyed by its
	// proposal sequence number, with its signature, so the campaign
	// survives interruption. Create the file with Header.Adaptive set,
	// Total = MaxRuns and Universe = Fingerprint.
	Journal JournalSink
	// Resume replays a previously recorded adaptive journal: the
	// canonical proposal loop re-runs (the source must be configured
	// identically — same seed, same budget), and proposals whose
	// sequence number the journal covers skip simulation, feeding the
	// recorded outcome (and signature) to Observe instead.
	Resume *journal.Journal
	// Fingerprint identifies the strategy configuration (e.g. the seed
	// universe's UniverseHash). Stamped into created journals by the
	// caller and validated against Resume's header when non-empty.
	Fingerprint string
	// Halt, polled with the delivered-outcome count before each
	// proposal, stops the campaign gracefully: in-flight runs finish,
	// are journaled and delivered; nothing new is proposed.
	Halt func(completed int) bool
	// Metrics, when non-nil, receives campaign telemetry: the shared
	// campaign.runs / elapsed_ns / outcomes counters plus the adaptive
	// plane's campaign.signatures_unique gauge, campaign.pruned_equiv
	// counter and campaign.scenarios_per_sec gauge, all labeled with
	// the campaign name.
	Metrics *obs.Registry
	// Log, when non-nil, receives structured engine events.
	Log *slog.Logger
}

// AdaptiveResult is a finished adaptive campaign. Outcomes hold every
// delivered proposal — simulated, pruned and resumed — in proposal
// order.
type AdaptiveResult struct {
	Name     string
	Outcomes []fault.Outcome
	Tally    fault.Tally
	// Proposed counts delivered proposals (== len(Outcomes)).
	Proposed int
	// Simulated counts runs actually executed by this Execute
	// (excludes pruned replays and journal-resumed runs).
	Simulated int
	// PrunedEquiv counts proposals answered from the equivalence memo
	// instead of simulation.
	PrunedEquiv int
	// ResumedSkips counts proposals answered from the resume journal.
	ResumedSkips int
	// UniqueSignatures counts distinct outcome signatures delivered.
	UniqueSignatures int
	// PanicRecoveries counts delivered runs whose RunFunc panicked.
	PanicRecoveries int
	// Halted reports that Halt stopped the campaign before the source
	// or budget did.
	Halted bool
}

// Result converts to the classic campaign Result shape (for summary
// rendering and the daemon's result documents). PrunedEquiv maps onto
// DedupSavedRuns — both count runs answered without simulation.
func (r *AdaptiveResult) Result() *Result {
	res := &Result{
		Name:            r.Name,
		Outcomes:        r.Outcomes,
		Tally:           r.Tally,
		PanicRecoveries: r.PanicRecoveries,
		DedupSavedRuns:  r.PrunedEquiv,
	}
	for i, o := range r.Outcomes {
		if o.Class.IsFailure() {
			res.RunsToFirstFailure = i + 1
			break
		}
	}
	return res
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

// adaptiveProposal is one in-flight slot of the reorder window.
type adaptiveProposal struct {
	seq      int
	sc       fault.Scenario
	key      string
	pruned   bool
	resumed  bool
	out      fault.Outcome
	panicked bool
	// done is non-nil only for runs dispatched to the worker pool;
	// closed when out/panicked are filled.
	done chan struct{}
}

// resumeMap validates c.Resume against this campaign and indexes its
// entries by proposal sequence number.
func (c *AdaptiveCampaign) resumeMap() (map[int]journal.Entry, error) {
	if c.Resume == nil {
		return nil, nil
	}
	h := c.Resume.Header
	switch {
	case !h.Adaptive:
		return nil, fmt.Errorf("adaptive campaign %s: resume journal was written by a fixed-universe campaign", c.Name)
	case h.Campaign != c.Name:
		return nil, fmt.Errorf("adaptive campaign %s: resume journal belongs to campaign %q", c.Name, h.Campaign)
	case h.Shards != 1 || h.Shard != 0:
		return nil, fmt.Errorf("adaptive campaign %s: resume journal is sharded (%d/%d); adaptive campaigns do not shard", c.Name, h.Shard, h.Shards)
	case h.Total != c.MaxRuns:
		return nil, fmt.Errorf("adaptive campaign %s: resume journal budget %d does not match MaxRuns %d", c.Name, h.Total, c.MaxRuns)
	case c.Fingerprint != "" && h.Universe != c.Fingerprint:
		return nil, fmt.Errorf("adaptive campaign %s: resume journal fingerprint %s does not match %s", c.Name, h.Universe, c.Fingerprint)
	}
	m := make(map[int]journal.Entry, len(c.Resume.Entries))
	for _, ent := range c.Resume.Entries {
		if _, ok := fault.ParseClassification(ent.Class); !ok {
			return nil, fmt.Errorf("adaptive campaign %s: journal entry %d has unknown class %q", c.Name, ent.Index, ent.Class)
		}
		if prev, ok := m[ent.Index]; ok && prev != ent {
			return nil, fmt.Errorf("adaptive campaign %s: journal records proposal %d twice with different outcomes", c.Name, ent.Index)
		}
		m[ent.Index] = ent
	}
	return m, nil
}

// safeRun is Campaign.safeRun for the adaptive engine.
func (c *AdaptiveCampaign) safeRun(sc fault.Scenario) (o fault.Outcome, panicked bool) {
	defer recoverRun(sc, &o, &panicked)
	return c.Run(sc), false
}

// Execute runs the adaptive loop to completion (source exhausted,
// budget spent, or halted) and returns the delivered outcomes in
// proposal order.
func (c *AdaptiveCampaign) Execute() (*AdaptiveResult, error) {
	if c.Run == nil || c.Source == nil {
		return nil, fmt.Errorf("adaptive campaign %s: needs both Run and Source", c.Name)
	}
	if c.MaxRuns < 0 {
		return nil, fmt.Errorf("adaptive campaign %s: negative MaxRuns %d", c.Name, c.MaxRuns)
	}
	lookahead := c.Lookahead
	if lookahead <= 0 {
		lookahead = DefaultLookahead
	}
	workers := par.Resolve(c.Workers)
	resumed, err := c.resumeMap()
	if err != nil {
		return nil, err
	}

	res := &AdaptiveResult{Name: c.Name, Tally: make(fault.Tally)}
	var (
		window     []*adaptiveProposal
		nextSeq    int
		dispatched int // simulated + resumed proposals, counted against MaxRuns
		sourceDone bool
		memo       = make(map[string]fault.Outcome)
		sigs       = make(map[uint64]struct{})
		appends    int
		abortErr   error
	)

	// Worker pool: buffered to the window size, so dispatch never
	// blocks and the proposal loop stays on its canonical schedule.
	var jobs chan *adaptiveProposal
	var wg sync.WaitGroup
	if workers > 0 {
		jobs = make(chan *adaptiveProposal, lookahead)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := range jobs {
					p.out, p.panicked = c.safeRun(p.sc)
					close(p.done)
				}
			}()
		}
	}

	// propose pulls one scenario and either answers it from the resume
	// journal / equivalence memo or dispatches a simulation. The memo
	// holds delivered outcomes only, so the prune decision at proposal
	// seq s depends on exactly the outcomes of seqs delivered before s
	// was proposed — a pure function of the canonical schedule.
	propose := func() error {
		sc, ok := c.Source.Next()
		if !ok {
			sourceDone = true
			return nil
		}
		if err := sc.Validate(); err != nil {
			return err
		}
		p := &adaptiveProposal{seq: nextSeq, sc: sc, key: scenarioContentKey(sc)}
		nextSeq++
		if ent, ok := resumed[p.seq]; ok {
			if ent.ID != sc.ID {
				return fmt.Errorf("journal proposal %d is scenario %q, replay proposed %q (strategy configuration changed?)", p.seq, ent.ID, sc.ID)
			}
			cls, _ := fault.ParseClassification(ent.Class)
			p.resumed = true
			p.out = fault.Outcome{Scenario: sc, Class: cls, Detail: ent.Detail, Signature: ent.Sig}
			p.panicked = ent.Panicked
			dispatched++
		} else if c.Prune {
			if out, ok := memo[p.key]; ok {
				out.Scenario = sc
				p.pruned = true
				p.out = out
			}
		}
		if !p.resumed && !p.pruned {
			dispatched++
			res.Simulated++
			if workers == 0 {
				p.out, p.panicked = c.safeRun(p.sc)
			} else {
				p.done = make(chan struct{})
				jobs <- p
			}
		}
		window = append(window, p)
		return nil
	}

	// deliver hands the head proposal's outcome back: journal (for
	// fresh simulations), memo, signature index, Observe, tally.
	deliver := func(p *adaptiveProposal) error {
		out := p.out
		if !p.pruned && out.Signature == 0 {
			out.Signature = fallbackSignature(out)
		}
		if !p.pruned {
			memo[p.key] = out
		}
		if out.Signature != 0 {
			sigs[out.Signature] = struct{}{}
		}
		if !p.pruned && !p.resumed && c.Journal != nil {
			err := c.Journal.Append(journal.Entry{
				Index: p.seq, ID: p.sc.ID,
				Class: out.Class.String(), Detail: out.Detail,
				Panicked: p.panicked, Sig: out.Signature,
			})
			if err != nil {
				return err
			}
			appends++
		}
		c.Source.Observe(out)
		res.Outcomes = append(res.Outcomes, out)
		res.Tally.Add(out)
		if p.pruned {
			res.PrunedEquiv++
		}
		if p.resumed {
			res.ResumedSkips++
		}
		if p.panicked {
			res.PanicRecoveries++
		}
		return nil
	}

	if c.Log != nil {
		c.Log.Info("adaptive campaign start", "campaign", c.Name,
			"budget", c.MaxRuns, "lookahead", lookahead,
			"workers", workers, "prune", c.Prune, "resumed", len(resumed))
	}
	start := time.Now()
	for {
		// Fill the proposal window, then deliver its head: the canonical
		// interleaving propose(0..W-1), [deliver(i), propose(W+i)]...
		for abortErr == nil && !res.Halted && !sourceDone && len(window) < lookahead &&
			(c.MaxRuns == 0 || dispatched < c.MaxRuns) {
			if c.Halt != nil && c.Halt(len(res.Outcomes)) {
				res.Halted = true
				break
			}
			if err := propose(); err != nil {
				abortErr = err
			}
		}
		if len(window) == 0 {
			break
		}
		p := window[0]
		window = window[1:]
		if p.done != nil {
			<-p.done
		}
		if abortErr != nil {
			continue // drain in-flight runs, deliver nothing further
		}
		if err := deliver(p); err != nil {
			abortErr = err
		}
	}
	if workers > 0 {
		close(jobs)
		wg.Wait()
	}
	elapsed := time.Since(start)
	if abortErr != nil {
		if c.Log != nil {
			c.Log.Error("adaptive campaign aborted", "campaign", c.Name, "err", abortErr)
		}
		return nil, fmt.Errorf("adaptive campaign %s: %w", c.Name, abortErr)
	}
	res.Proposed = len(res.Outcomes)
	res.UniqueSignatures = len(sigs)
	if c.Log != nil {
		if res.Halted {
			c.Log.Info("adaptive campaign halted", "campaign", c.Name, "completed", len(res.Outcomes))
		} else {
			c.Log.Info("adaptive campaign done", "campaign", c.Name,
				"proposed", res.Proposed, "simulated", res.Simulated,
				"pruned", res.PrunedEquiv, "unique_signatures", res.UniqueSignatures,
				"failures", res.Tally.Failures(), "elapsed", elapsed)
		}
	}
	c.publish(res, elapsed, appends)
	return res, nil
}

// publish folds the finished adaptive result into the metrics
// registry, reusing the fixed-universe campaign's metric names where
// the semantics coincide.
func (c *AdaptiveCampaign) publish(res *AdaptiveResult, elapsed time.Duration, appends int) {
	if c.Metrics == nil {
		return
	}
	reg := c.Metrics
	name := obs.L("campaign", c.Name)
	for class, n := range res.Tally {
		reg.Counter("campaign.outcomes", name, obs.L("class", class.String())).Add(uint64(n))
	}
	reg.Counter("campaign.runs", name).Add(uint64(len(res.Outcomes)))
	reg.Counter("campaign.elapsed_ns", name).Add(uint64(elapsed.Nanoseconds()))
	reg.Gauge("campaign.signatures_unique", name).Set(float64(res.UniqueSignatures))
	reg.Counter("campaign.pruned_equiv", name).Add(uint64(res.PrunedEquiv))
	if res.PanicRecoveries > 0 {
		reg.Counter("campaign.panic_recoveries", name).Add(uint64(res.PanicRecoveries))
	}
	if c.Journal != nil {
		reg.Counter("campaign.journal_appends", name).Add(uint64(appends))
	}
	if c.Resume != nil {
		reg.Counter("campaign.resumed_skips", name).Add(uint64(res.ResumedSkips))
	}
	if elapsed > 0 && res.Simulated > 0 {
		reg.Gauge("campaign.scenarios_per_sec", name).Set(float64(res.Simulated) / elapsed.Seconds())
	}
}

// scenarioContentKey serializes a scenario's fault content (descriptor
// fields except names) — the equivalence-pruning and dedup key.
func scenarioContentKey(sc fault.Scenario) string {
	key := ""
	for _, d := range sc.Faults {
		key += descKey(d) + ";"
	}
	return key
}
