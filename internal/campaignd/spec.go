// Package campaignd implements the capsimd campaign service: the
// long-running daemon that turns one-shot capsim invocations into a
// queued, durable, streamable workflow. A client POSTs a campaign
// spec and gets a run ID; a FIFO scheduler feeds a persistent
// executor whose virtual-prototype runners — kernel/prototype slot
// pools, checkpoint node buffers and golden trajectories included —
// stay warm *across* runs, amortizing elaboration the way the
// in-process reuse engine amortizes it across scenarios. Every run's
// journal lives under the daemon's data directory, so an in-flight
// campaign survives a daemon crash and resumes on restart, and
// completed results are served and merged from the same store.
package campaignd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/caps"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// Universe kinds accepted in a Spec.
const (
	// KindCAPSSingleFault is the exhaustive single-fault universe of
	// the CAPS prototype — the same universe `capsim -campaign` runs.
	KindCAPSSingleFault = "caps-single-fault"
	// KindInline runs client-supplied scenarios (textual fault
	// descriptions in the fault.ParseDescriptor syntax) on the CAPS
	// prototype.
	KindInline = "inline"
)

// Decoder hardening bounds. A spec is client input: every numeric
// knob is range-checked and every collection is size-capped before
// the scheduler spends a single simulation cycle on it.
const (
	// MaxSpecBytes bounds the request body of POST /runs and /merge.
	MaxSpecBytes = 1 << 20
	// MaxWorkers bounds the per-run worker pool request.
	MaxWorkers = 1024
	// MaxInlineScenarios bounds a KindInline universe.
	MaxInlineScenarios = 4096
	// MaxShardCount bounds Spec.Shard's partition count.
	MaxShardCount = 4096
	// MaxHorizon bounds the simulated horizon (and injection time).
	MaxHorizon = 10 * sim.Second
	// MaxScenarioTimeout bounds the per-scenario wall-clock budget.
	MaxScenarioTimeout = time.Hour
	// MaxNoveltyBudget bounds the adaptive simulated-run budget.
	MaxNoveltyBudget = 1 << 16
	// maxNameLen bounds the campaign label.
	maxNameLen = 128
)

// Spec is the campaign description: the body of POST /runs, the
// -spec file of capsim-coord, and the value capsim and campmerge bind
// their flags to. Every front-end validates it with Validate and turns
// it into a campaign with BuildRunner and Build, so a spec and a
// command line that set the same knobs are the same campaign by
// construction; the clitest goldens pin that for a fixed universe and
// for adaptive. Flags and fields are not one for one: the README table
// lists which front-end reads which knob, which knobs have no flag, and
// which capsim flags are caller-attached sinks rather than description.
type Spec struct {
	// Campaign labels the run (journals, metrics, trace spans).
	// Defaults to "capsimd".
	Campaign string `json:"campaign,omitempty"`
	// Universe selects the scenario universe.
	Universe UniverseSpec `json:"universe"`
	// Workers sizes the in-run worker pool: 0 sequential, -1 one per
	// CPU, N > 0 a pool of N (capsim -workers).
	Workers int `json:"workers,omitempty"`
	// Dedup collapses scenarios with identical fault content
	// (capsim -dedup).
	Dedup bool `json:"dedup,omitempty"`
	// Checkpoints, CheckpointTree, EarlyExit and HashStride still parse,
	// so stored specs and older clients stay valid, but change nothing:
	// every campaign forks its scenarios off a tree of golden-prefix
	// snapshots, and a run with no permanent fault stops once its state
	// hash, taken every horizon/16, re-joins the golden run's.
	Checkpoints    bool   `json:"checkpoints,omitempty"`
	CheckpointTree bool   `json:"checkpoint_tree,omitempty"`
	EarlyExit      bool   `json:"early_exit,omitempty"`
	HashStride     string `json:"hash_stride,omitempty"`
	// StopOnFirst aborts at the first unhandled failure.
	StopOnFirst bool `json:"stop_on_first,omitempty"`
	// Shard restricts the run to one partition, "i/N" (capsim -shard).
	Shard string `json:"shard,omitempty"`
	// ScenarioTimeout bounds each scenario's wall-clock time, in Go
	// duration syntax, e.g. "2s" (capsim -scenario-timeout).
	ScenarioTimeout string `json:"scenario_timeout,omitempty"`
	// Trace records a Chrome trace-event timeline of the run (one span
	// per scenario on its worker's row), downloadable at
	// GET /runs/{id}/trace once the run completes — and streamable
	// live while it executes.
	Trace bool `json:"trace,omitempty"`
	// Adaptive drives the run with the novelty-adaptive strategy
	// instead of the fixed universe (capsim -adaptive). The universe
	// kind must generate fault descriptors (KindCAPSSingleFault). It
	// runs through the same engine as a fixed universe, so workers,
	// scenario_timeout and trace apply; shard and
	// stop_on_first do not compose with the feedback loop and are
	// rejected, as is an explicit dedup (adaptive always prunes equivalent
	// proposals).
	Adaptive bool `json:"adaptive,omitempty"`
	// NoveltyBudget is the adaptive simulated-run budget
	// (capsim -novelty-budget; default 64).
	NoveltyBudget int `json:"novelty_budget,omitempty"`
	// NoveltySeed seeds the adaptive strategy's RNG
	// (capsim -novelty-seed; default 1).
	NoveltySeed int64 `json:"novelty_seed,omitempty"`

	// Parsed forms, populated by Validate.
	horizon sim.Time
	inject  sim.Time
	shard   stressor.Shard
	timeout time.Duration
	inline  []fault.Scenario // the KindInline universe, in spec order
}

// UniverseSpec selects and parameterizes the scenario universe.
type UniverseSpec struct {
	// Kind is KindCAPSSingleFault (default) or KindInline.
	Kind string `json:"kind,omitempty"`
	// World is the environment: "normal" (default) or "crash".
	World string `json:"world,omitempty"`
	// Unprotected disables the safety mechanisms.
	Unprotected bool `json:"unprotected,omitempty"`
	// Horizon is the simulated duration, e.g. "80ms" (default).
	Horizon string `json:"horizon,omitempty"`
	// Inject is the fault activation time of the generated universe,
	// e.g. "10ms" (default). Ignored for KindInline.
	Inject string `json:"inject,omitempty"`
	// Scenarios lists the inline scenarios (KindInline only).
	Scenarios []InlineScenario `json:"scenarios,omitempty"`
}

// InlineScenario is one client-supplied scenario: an ID and a
// semicolon-separated fault description list.
type InlineScenario struct {
	ID     string `json:"id"`
	Faults string `json:"faults"`
}

// ParseSpec decodes, defaults and validates a spec. Unknown fields
// and trailing garbage are rejected — a typo'd knob must fail the
// submission, not silently run a different campaign.
func ParseSpec(data []byte) (*Spec, error) {
	if len(data) > MaxSpecBytes {
		return nil, fmt.Errorf("campaignd: spec exceeds %d bytes", MaxSpecBytes)
	}
	s := &Spec{}
	if err := decodeStrict(data, s, "spec"); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeStrict decodes the JSON body data, a what, into v. A typo'd
// knob or trailing data fails the request, never silently dropped.
func decodeStrict(data []byte, v any, what string) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("campaignd: bad %s: %w", what, err)
	}
	if dec.More() {
		return fmt.Errorf("campaignd: trailing data after %s", what)
	}
	return nil
}

// ValidatePrototype defaults and range-checks the half of a spec that
// shapes the virtual prototype — world and horizon — which is all
// BuildRunner reads: enough to list injection sites or run one
// scenario (capsim -sites, -faults) without describing a campaign.
func (s *Spec) ValidatePrototype() error {
	u := &s.Universe
	if u.World == "" {
		u.World = "normal"
	}
	if u.World != "normal" && u.World != "crash" {
		return fmt.Errorf("campaignd: unknown world %q (want normal or crash)", u.World)
	}
	if u.Horizon == "" {
		u.Horizon = "80ms"
	}
	horizon, err := fault.ParseDuration(u.Horizon)
	if err != nil {
		return fmt.Errorf("campaignd: horizon: %w", err)
	}
	if horizon <= 0 || horizon > MaxHorizon {
		return fmt.Errorf("campaignd: horizon %s out of range (0, %v]", u.Horizon, MaxHorizon)
	}
	s.horizon = horizon
	return nil
}

// Validate defaults and range-checks every knob, parsing the textual
// durations and the shard into their executable forms: the prototype
// half first (ValidatePrototype), then everything that describes the
// campaign run on it.
func (s *Spec) Validate() error {
	if err := s.ValidatePrototype(); err != nil {
		return err
	}
	s.shard, s.timeout, s.inline = stressor.Shard{}, 0, nil
	if s.Campaign == "" {
		s.Campaign = "capsimd"
	}
	if len(s.Campaign) > maxNameLen {
		return fmt.Errorf("campaignd: campaign name exceeds %d bytes", maxNameLen)
	}
	for _, r := range s.Campaign {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("campaignd: campaign name contains control characters")
		}
	}
	if s.Workers < stressor.WorkersAuto || s.Workers > MaxWorkers {
		return fmt.Errorf("campaignd: workers %d out of range %d..%d", s.Workers, stressor.WorkersAuto, MaxWorkers)
	}
	u := &s.Universe
	if u.Kind == "" {
		u.Kind = KindCAPSSingleFault
	}
	switch u.Kind {
	case KindCAPSSingleFault:
		if len(u.Scenarios) > 0 {
			return fmt.Errorf("campaignd: universe kind %q does not take inline scenarios", u.Kind)
		}
		if u.Inject == "" {
			u.Inject = "10ms"
		}
		inject, err := fault.ParseDuration(u.Inject)
		if err != nil {
			return fmt.Errorf("campaignd: inject: %w", err)
		}
		if inject <= 0 || inject >= s.horizon {
			return fmt.Errorf("campaignd: inject %s out of range (0, horizon)", u.Inject)
		}
		s.inject = inject
	case KindInline:
		if u.Inject != "" {
			return fmt.Errorf("campaignd: universe kind %q does not take an inject time", u.Kind)
		}
		if n := len(u.Scenarios); n == 0 || n > MaxInlineScenarios {
			return fmt.Errorf("campaignd: inline universe needs 1..%d scenarios, got %d", MaxInlineScenarios, n)
		}
		seen := make(map[string]bool, len(u.Scenarios))
		s.inline = make([]fault.Scenario, 0, len(u.Scenarios))
		for i, is := range u.Scenarios {
			if is.ID == "" {
				return fmt.Errorf("campaignd: inline scenario %d without id", i)
			}
			if len(is.ID) > maxNameLen {
				return fmt.Errorf("campaignd: inline scenario %d id exceeds %d bytes", i, maxNameLen)
			}
			if seen[is.ID] {
				return fmt.Errorf("campaignd: duplicate inline scenario id %q", is.ID)
			}
			seen[is.ID] = true
			sc, err := fault.ParseScenario(is.ID, is.Faults)
			if err != nil {
				return fmt.Errorf("campaignd: inline scenario %q: %w", is.ID, err)
			}
			if err := sc.Validate(); err != nil {
				return fmt.Errorf("campaignd: inline scenario %q: %w", is.ID, err)
			}
			s.inline = append(s.inline, sc)
		}
	default:
		return fmt.Errorf("campaignd: unknown universe kind %q", u.Kind)
	}
	if s.Shard != "" {
		sh, err := stressor.ParseShard(s.Shard)
		if err != nil {
			return fmt.Errorf("campaignd: %w", err)
		}
		if sh.Count > MaxShardCount {
			return fmt.Errorf("campaignd: shard count %d exceeds %d", sh.Count, MaxShardCount)
		}
		s.shard = sh
	}
	if s.Adaptive {
		// The submit-time mirror of what stressor.Campaign refuses next to
		// a Source — client input is rejected before a run is queued, not
		// when the executor reaches it — plus an explicit dedup, which
		// adaptive already implies.
		refused := []struct {
			name string
			on   bool
		}{
			{"shard", s.Shard != ""}, {"stop_on_first", s.StopOnFirst},
			{"dedup", s.Dedup},
		}
		for _, f := range refused {
			if f.on {
				return fmt.Errorf("campaignd: %s cannot be combined with adaptive", f.name)
			}
		}
		if u.Kind != KindCAPSSingleFault {
			return fmt.Errorf("campaignd: adaptive requires universe kind %q", KindCAPSSingleFault)
		}
		if s.NoveltyBudget == 0 {
			s.NoveltyBudget = 64
		}
		if s.NoveltyBudget < 1 || s.NoveltyBudget > MaxNoveltyBudget {
			return fmt.Errorf("campaignd: novelty_budget %d out of range 1..%d", s.NoveltyBudget, MaxNoveltyBudget)
		}
		if s.NoveltySeed == 0 {
			s.NoveltySeed = 1
		}
	} else if s.NoveltyBudget != 0 || s.NoveltySeed != 0 {
		return fmt.Errorf("campaignd: novelty_budget/novelty_seed only apply with adaptive")
	}
	if s.ScenarioTimeout != "" {
		d, err := time.ParseDuration(s.ScenarioTimeout)
		if err != nil {
			return fmt.Errorf("campaignd: scenario_timeout: %w", err)
		}
		if d < 0 || d > MaxScenarioTimeout {
			return fmt.Errorf("campaignd: scenario_timeout %s out of range [0, %v]", s.ScenarioTimeout, MaxScenarioTimeout)
		}
		s.timeout = d
	}
	return nil
}

// RunnerKey identifies the virtual-prototype configuration a spec
// needs. Specs with equal keys share one warm runner (its slot pool
// and its golden-prefix checkpoint nodes) across daemon runs; the key
// deliberately excludes everything that does not shape the prototype
// itself (inject time, workers, shard, ...).
func (s *Spec) RunnerKey() string {
	return fmt.Sprintf("caps|%s|unprotected=%v|horizon=%d", s.Universe.World, s.Universe.Unprotected, s.horizon)
}

// BuildRunner constructs the CAPS runner for this spec's prototype
// configuration (one golden run included) — the one place the commands
// and this package configure or construct a runner
// (TestOneSpecToCampaignPath). Callers cache the result under RunnerKey.
func (s *Spec) BuildRunner() (*caps.Runner, error) {
	cfg := caps.Protected()
	if s.Universe.Unprotected {
		cfg = caps.Unprotected()
	}
	w := caps.NormalDriving()
	if s.Universe.World == "crash" {
		w = caps.CrashAt(sim.MS(20))
	}
	return caps.NewRunner(cfg, w, s.horizon)
}

// Build is the one place a spec's knobs become a stressor.Campaign:
// capsim, the daemon's scheduler and the fabric's resolver all run what
// it returns, on a runner from BuildRunner, and hand Execute the list
// returned with it (nil for an adaptive spec, whose scenario source
// replaces the list). Callers attach only what is theirs — journal and
// resume, metrics and trace, progress, halt, log, flight — and the
// fabric worker overwrites the identity fields its lease owns.
func (s *Spec) Build(r *caps.Runner) (*stressor.Campaign, []fault.Scenario, error) {
	scenarios, err := s.Scenarios(r)
	if err != nil {
		return nil, nil, err
	}
	c := &stressor.Campaign{
		Name: s.Campaign, Workers: s.Workers,
		Dedup: s.Dedup, StopOnFirst: s.StopOnFirst, Shard: s.shard,
		ScenarioTimeout: s.timeout,
		Checkpointer:    r,
	}
	if s.Adaptive {
		// The Novelty strategy over the spec's fault universe replaces the
		// list, and the runner's sessions sign for it. A resumed run
		// replays its journal into the same seeded strategy.
		c.Dedup = true
		c.Source = NewNovelty(r.Universe(s.inject), s.NoveltyBudget, s.NoveltySeed, s.horizon)
		c.MaxRuns, c.Fingerprint = s.NoveltyBudget, stressor.UniverseHash(scenarios)
		scenarios = nil
	}
	return c, scenarios, nil
}

// Merge reassembles completed shard journals of this spec's campaign
// into the result the unsharded run would have produced (campmerge and
// POST /merge), via stressor.Merge, and returns the universe size with
// it. The universe is rebuilt on r, so the spec must carry the
// prototype knobs the shards ran with; journals of another universe are
// refused by their hash.
func (s *Spec) Merge(r *caps.Runner, js []*journal.Journal) (*stressor.Result, int, error) {
	if s.Adaptive {
		return nil, 0, fmt.Errorf("campaignd: adaptive runs do not shard — there is nothing to merge")
	}
	scenarios, err := s.Scenarios(r)
	if err != nil {
		return nil, 0, err
	}
	res, err := stressor.Merge(stressor.MergeSpec{
		StopOnFirst: s.StopOnFirst, Dedup: s.Dedup,
	}, scenarios, js)
	return res, len(scenarios), err
}

// Summary is the summary block every front-end prints for res, a
// result of this spec's campaign over a universe of the given size. An
// adaptive campaign has no list; its size is what it delivered.
func (s *Spec) Summary(scenarios int, res *stressor.Result) Summary {
	return Summary{
		World: s.Universe.World, Protected: !s.Universe.Unprotected,
		Scenarios: max(scenarios, len(res.Outcomes)), Workers: s.Workers,
		Inline: s.Inline(), Shard: s.shard, Result: res,
	}
}

// Scenarios materializes the spec's scenario universe on the given
// runner. For KindCAPSSingleFault this is exactly the universe capsim
// enumerates, so the run — and its journal header — is interchangeable
// with the CLI's; for KindInline it is the list Validate parsed, which
// callers share and must not modify.
func (s *Spec) Scenarios(r *caps.Runner) ([]fault.Scenario, error) {
	switch s.Universe.Kind {
	case KindCAPSSingleFault:
		return fault.Singles(r.Universe(s.inject)), nil
	case KindInline:
		return s.inline, nil
	default:
		return nil, fmt.Errorf("campaignd: unknown universe kind %q", s.Universe.Kind)
	}
}

// Inline reports whether the universe is client-supplied.
func (s *Spec) Inline() bool { return s.Universe.Kind == KindInline }
