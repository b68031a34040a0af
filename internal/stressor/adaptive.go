package stressor

import (
	"repro/internal/fault"
	"repro/internal/obs"
)

// ScenarioSource feeds a Campaign in place of a scenario list: Next
// proposes scenarios until it returns false, Observe receives each
// delivered outcome. The exploration strategies of package scenario
// (MonteCarlo, Guided, Novelty) are sources. The engine makes all
// Next/Observe calls from one goroutine, in proposal order —
// implementations need no locking, and deterministic implementations
// make the whole campaign deterministic.
type ScenarioSource interface {
	Next() (fault.Scenario, bool)
	Observe(fault.Outcome)
}

// AdaptiveCampaign is the old spelling of Campaign{Source: ...}, kept
// only because the frozen bench/ compiles against it; ROADMAP 6(b)'s
// benchmark PR deletes it together with AdaptiveResult. New code sets
// Campaign.Source.
type AdaptiveCampaign struct {
	Name    string
	Run     RunFunc
	Source  ScenarioSource
	Workers int
	MaxRuns int
	// Prune is Campaign.Dedup.
	Prune   bool
	Metrics *obs.Registry
}

// AdaptiveResult is the old spelling of a Source-driven Result.
type AdaptiveResult struct {
	Outcomes         []fault.Outcome
	Proposed         int
	Simulated        int
	PrunedEquiv      int
	UniqueSignatures int

	res *Result
}

// Result returns the campaign Result this was converted from.
func (r *AdaptiveResult) Result() *Result { return r.res }

// Execute runs Campaign{Source: ...} and converts its Result.
func (c *AdaptiveCampaign) Execute() (*AdaptiveResult, error) {
	res, err := (&Campaign{
		Name: c.Name, Run: c.Run, Source: c.Source, Workers: c.Workers,
		MaxRuns: c.MaxRuns, Dedup: c.Prune, Metrics: c.Metrics,
	}).Execute(nil)
	if err != nil {
		return nil, err
	}
	return &AdaptiveResult{
		Outcomes: res.Outcomes, Proposed: len(res.Outcomes),
		Simulated: res.Adaptive.Simulated, PrunedEquiv: res.DedupSavedRuns,
		UniqueSignatures: res.Adaptive.UniqueSignatures, res: res,
	}, nil
}
