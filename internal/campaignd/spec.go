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

// Spec is the campaign description POSTed to /runs. The JSON knobs
// mirror capsim's campaign flags one for one, so a spec and a capsim
// command line describe — and produce — the identical campaign; the
// clitest goldens pin that for a fixed universe and for adaptive.
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
	// Checkpoints forks scenarios off golden-run snapshots
	// (capsim -checkpoints): each worker session keeps one rolling
	// snapshot. Sessions live for one run; what the daemon keeps warm
	// across runs is the runner — slot pools, snapshot buffers, golden
	// trajectories.
	Checkpoints bool `json:"checkpoints,omitempty"`
	// CheckpointTree raises the session's snapshot budget from one to a
	// tree of golden-prefix snapshots and forks each scenario from the
	// deepest shared one (capsim -checkpoint-tree). Implies checkpoints.
	CheckpointTree bool `json:"checkpoint_tree,omitempty"`
	// EarlyExit terminates a run the moment its state hash re-converges
	// with the golden trajectory (capsim -early-exit). Implies
	// checkpoints.
	EarlyExit bool `json:"early_exit,omitempty"`
	// HashStride is the golden-trajectory hashing interval for
	// EarlyExit, e.g. "5ms" (capsim -hash-stride; default horizon/16).
	HashStride string `json:"hash_stride,omitempty"`
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
	// scenario_timeout and trace apply; shard, checkpoints,
	// checkpoint_tree, early_exit, hash_stride and stop_on_first do not
	// compose with the feedback loop and are rejected, as is an explicit
	// dedup (adaptive always prunes equivalent proposals).
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
	stride  sim.Time
	shard   stressor.Shard
	timeout time.Duration
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
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := &Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("campaignd: bad spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("campaignd: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate defaults and range-checks every knob, parsing the textual
// durations and the shard into their executable forms.
func (s *Spec) Validate() error {
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
		if inject <= 0 || inject >= horizon {
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
	} else {
		s.shard = stressor.Shard{}
	}
	if s.CheckpointTree || s.EarlyExit {
		// Tree and early-exit modes build on checkpoint sessions, the
		// same way capsim's flags imply -checkpoints.
		s.Checkpoints = true
	}
	if s.HashStride != "" {
		if !s.EarlyExit {
			return fmt.Errorf("campaignd: hash_stride set without early_exit")
		}
		stride, err := fault.ParseDuration(s.HashStride)
		if err != nil {
			return fmt.Errorf("campaignd: hash_stride: %w", err)
		}
		if stride <= 0 || stride > horizon {
			return fmt.Errorf("campaignd: hash_stride %s out of range (0, horizon]", s.HashStride)
		}
		s.stride = stride
	} else {
		s.stride = 0
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
			{"shard", s.Shard != ""}, {"hash_stride", s.HashStride != ""},
			{"early_exit", s.EarlyExit}, {"checkpoint_tree", s.CheckpointTree},
			{"checkpoints", s.Checkpoints}, {"stop_on_first", s.StopOnFirst},
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
	} else {
		s.timeout = 0
	}
	return nil
}

// RunnerKey identifies the virtual-prototype configuration a spec
// needs. Specs with equal keys share one warm runner (and its slot
// and checkpoint node pools) across daemon runs; the key
// deliberately excludes everything that does not shape the prototype
// itself (inject time, workers, shard, ...).
func (s *Spec) RunnerKey() string {
	return fmt.Sprintf("caps|%s|unprotected=%v|horizon=%d", s.Universe.World, s.Universe.Unprotected, s.horizon)
}

// BuildRunner constructs the CAPS runner for this spec's prototype
// configuration (one golden run included). Callers cache the result
// under RunnerKey.
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

// applyEngine copies the spec's engine knobs — worker pool,
// per-scenario budget, checkpoint mode — onto c, with cp supplying the
// golden-run sessions. The daemon scheduler and the fabric resolver
// both configure their campaigns through it, so a knob reaches every
// front-end or none.
func (s *Spec) applyEngine(c *stressor.Campaign, cp stressor.Checkpointer) {
	c.Workers = s.Workers
	c.ScenarioTimeout = s.timeout
	if s.Checkpoints {
		c.Checkpoints = true
		c.Checkpointer = cp
		c.CheckpointTree = s.CheckpointTree
		c.EarlyExit = s.EarlyExit
		c.HashStride = s.stride
	}
}

// summary is the capsim-identical summary of res, a result of this
// spec's campaign over a universe of the given size.
func (s *Spec) summary(scenarios int, res *stressor.Result) Summary {
	return Summary{
		World: s.Universe.World, Protected: !s.Universe.Unprotected,
		Scenarios: scenarios, Workers: s.Workers,
		Inline: s.Inline(), Shard: s.shard, Result: res,
	}
}

// Scenarios materializes the spec's scenario universe on the given
// runner. For KindCAPSSingleFault this is exactly the universe capsim
// enumerates, so the run — and its journal header — is interchangeable
// with the CLI's.
func (s *Spec) Scenarios(r *caps.Runner) ([]fault.Scenario, error) {
	switch s.Universe.Kind {
	case KindCAPSSingleFault:
		return fault.Singles(r.Universe(s.inject)), nil
	case KindInline:
		out := make([]fault.Scenario, 0, len(s.Universe.Scenarios))
		for _, is := range s.Universe.Scenarios {
			sc, err := fault.ParseScenario(is.ID, is.Faults)
			if err != nil {
				return nil, fmt.Errorf("campaignd: inline scenario %q: %w", is.ID, err)
			}
			out = append(out, sc)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("campaignd: unknown universe kind %q", s.Universe.Kind)
	}
}

// ShardSpec returns the parsed shard (zero value when unsharded).
func (s *Spec) ShardSpec() stressor.Shard { return s.shard }

// Horizon returns the parsed simulated horizon.
func (s *Spec) Horizon() sim.Time { return s.horizon }

// Timeout returns the parsed per-scenario wall-clock budget.
func (s *Spec) Timeout() time.Duration { return s.timeout }

// Stride returns the parsed early-exit hash stride (0 = default).
func (s *Spec) Stride() sim.Time { return s.stride }

// Inline reports whether the universe is client-supplied.
func (s *Spec) Inline() bool { return s.Universe.Kind == KindInline }
