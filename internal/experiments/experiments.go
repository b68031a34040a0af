// Package experiments implements the reproduction harness: one
// runnable experiment per quantitative claim of the paper (E1..E9)
// plus executable renditions of its two methodology figures (F2, F3).
// DESIGN.md §3 maps each experiment to its paper anchor; EXPERIMENTS.md
// records paper-vs-measured. Every experiment returns text tables and
// a Check result verifying the claim's *shape* (who wins, what
// saturates, what degrades), not absolute numbers.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/stressor"
)

// Metrics and Trace are the harness-wide observability sinks. Both
// are nil by default (experiments run uninstrumented); the vpsafety
// CLI attaches them via Instrument. All obs types are nil-safe, so
// experiment code calls Phase and campaign unconditionally.
var (
	Metrics *obs.Registry
	Trace   *obs.TraceRecorder
	// CampaignProgress, when set, streams live progress from every
	// experiment campaign.
	CampaignProgress obs.ProgressFunc
)

// Instrument attaches observability sinks to the experiment harness.
// Call before running experiments; pass nils to detach.
func Instrument(reg *obs.Registry, tr *obs.TraceRecorder) {
	Metrics = reg
	Trace = tr
}

// Phase marks a named wall-clock phase of an experiment. It returns
// the closer, so the idiomatic call is
//
//	done := Phase("E8", "campaign:protected")
//	... work ...
//	done()
//
// Each phase records into the exp.phase_ns{exp=,phase=} histogram and
// emits an "experiment"-category trace span. With no sinks attached
// the only cost is two time.Now calls.
func Phase(exp, name string) func() {
	sp := Trace.Begin("experiment", exp+"/"+name, 0)
	start := time.Now()
	return func() {
		Metrics.Histogram("exp.phase_ns", obs.L("exp", exp), obs.L("phase", name)).
			Observe(uint64(time.Since(start)))
		sp.End()
	}
}

// AttributionTable builds the wall-clock attribution table of one
// experiment from the phase histograms accumulated so far, or nil
// when the harness is uninstrumented or the experiment has not run.
func AttributionTable(id string) *report.Table {
	if Metrics == nil {
		return nil
	}
	var ms []obs.Metric
	for _, m := range Metrics.Snapshot() {
		if m.Name == "exp.phase_ns" && m.Label("exp") == id {
			ms = append(ms, m)
		}
	}
	if len(ms) == 0 {
		return nil
	}
	return report.MetricsTable(fmt.Sprintf("%s: wall-clock attribution by phase", id), ms)
}

// campaign builds the stressor campaign an experiment runs its
// scenarios on: the runner as the prototype every scenario forks from,
// one worker per CPU, and src (nil for a scenario list handed to
// Execute) as the strategy. Results are identical at every worker
// count. The harness sinks are nil when it is uninstrumented, which
// leaves the campaign on its zero-overhead path.
func campaign(name string, runner stressor.Checkpointer, src stressor.ScenarioSource) *stressor.Campaign {
	return &stressor.Campaign{
		Name: name, Checkpointer: runner, Source: src, Workers: stressor.WorkersAuto,
		Metrics: Metrics, Trace: Trace, Progress: CampaignProgress,
	}
}

// Result is one experiment's outcome.
type Result struct {
	ID     string
	Title  string
	Claim  string // the paper sentence being reproduced
	Tables []*report.Table
	// ShapeHolds reports whether the claimed qualitative shape was
	// observed; ShapeDetail explains.
	ShapeHolds  bool
	ShapeDetail string
}

// Render prints the full result.
func (r *Result) Render() string {
	out := fmt.Sprintf("### %s: %s\nClaim: %s\n\n", r.ID, r.Title, r.Claim)
	for _, t := range r.Tables {
		out += t.Render() + "\n"
	}
	status := "HOLDS"
	if !r.ShapeHolds {
		status = "VIOLATED"
	}
	out += fmt.Sprintf("Shape %s: %s\n", status, r.ShapeDetail)
	return out
}

// Experiment is a registered runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Result, error)
}

var registry = map[string]Experiment{}

// register wraps every experiment's Run with a "total" phase and, when
// the harness is instrumented, appends the per-phase wall-clock
// attribution table to the result.
func register(e Experiment) {
	run := e.Run
	e.Run = func() (*Result, error) {
		done := Phase(e.ID, "total")
		res, err := run()
		done()
		if err == nil && res != nil {
			if t := AttributionTable(e.ID); t != nil {
				res.Tables = append(res.Tables, t)
			}
		}
		return res, err
	}
	registry[e.ID] = e
}

// Get looks up an experiment by ID (e.g. "E1", "F3").
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All lists experiments in ID order.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
