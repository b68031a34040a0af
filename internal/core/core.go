// Package core is the framework façade: it wires the paper's three
// pillars — (i) Mission Profiles, (ii) UVM-style testbenches with
// fault injectors, (iii) error-effect simulation — into one
// end-to-end safety evaluation (Sec. 3.1 of the paper).
//
// An Evaluation takes a mission profile and a virtual prototype (the
// runner a stressor campaign forks every scenario from, plus its
// injection sites), derives fault descriptions with
// missionprofile.DefaultRules, and produces the quantitative artifacts
// the methodology promises: the outcome tally, fault-space coverage,
// the weak-spot ranking, and a fault tree synthesized from the
// observed failures.
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/missionprofile"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// Evaluation is one configured safety evaluation.
type Evaluation struct {
	// Profile is the (already refined) mission profile of the
	// component under evaluation.
	Profile *missionprofile.Profile
	// Sites are the prototype's injection sites.
	Sites []string
	// Prototype runs the scheduled scenarios as one stressor campaign.
	Prototype stressor.Checkpointer
	// Horizon is the simulated duration per run.
	Horizon sim.Time
	// Seed makes scenario scheduling reproducible.
	Seed int64
	// Replicate multiplies the derived fault set to grow the campaign
	// (minimum 1).
	Replicate int
}

// eventProb is the per-mission basic-event probability of the
// synthesized fault tree.
const eventProb = 1e-3

// Summary is the evaluation outcome.
type Summary struct {
	// Derived is the number of fault descriptions the profile yielded.
	Derived int
	// Scenarios is the number of executed stress tests.
	Scenarios int
	// Tally is the outcome classification histogram.
	Tally fault.Tally
	// Coverage is the fault-space coverage reached ([0,1]).
	Coverage float64
	// WeakSpots ranks sites by worst observed severity.
	WeakSpots []coverage.SiteSeverity
	// FaultTree is synthesized from the failing scenarios (a basic
	// event with probability 0 when none failed).
	FaultTree *safety.Node
	// TopEventProbability evaluates the synthesized tree.
	TopEventProbability float64
}

// Execute runs the full pipeline: derive → schedule → inject →
// classify → aggregate.
func (e *Evaluation) Execute() (*Summary, error) {
	if e.Profile == nil || e.Prototype == nil || len(e.Sites) == 0 {
		return nil, fmt.Errorf("core: evaluation needs a profile, a prototype and injection sites")
	}
	if e.Horizon == 0 {
		return nil, fmt.Errorf("core: evaluation needs a horizon")
	}
	derived, err := missionprofile.Derive(e.Profile, missionprofile.DefaultRules(), e.Sites)
	if err != nil {
		return nil, err
	}
	if len(derived) == 0 {
		return nil, fmt.Errorf("core: profile %q derives no faults over the given sites", e.Profile.Component)
	}
	rep := e.Replicate
	if rep < 1 {
		rep = 1
	}
	pool := make([]missionprofile.Derived, 0, len(derived)*rep)
	for i := 0; i < rep; i++ {
		pool = append(pool, derived...)
	}
	scenarios := missionprofile.Schedule(e.Profile, pool, e.Horizon, rand.New(rand.NewSource(e.Seed)))

	fs := coverage.NewFaultSpace(nil, nil)
	for _, d := range derived {
		fs.Declare(d.Descriptor.Target, d.Descriptor.Model.String())
	}
	res, err := (&stressor.Campaign{
		Name: e.Profile.Component, Checkpointer: e.Prototype, Workers: stressor.WorkersAuto,
	}).Execute(scenarios)
	if err != nil {
		return nil, err
	}
	for _, o := range res.Outcomes {
		for _, d := range o.Scenario.Faults {
			fs.Record(d.Target, d.Model.String(), o.Class.Severity())
		}
	}

	tree := analysis.SynthesizeFaultTree(e.Profile.Component+"-hazard", res.Outcomes,
		func(c fault.Classification) bool { return c.IsFailure() }, nil, eventProb)
	top, err := tree.TopEventProbability()
	if err != nil {
		return nil, err
	}

	return &Summary{
		Derived:             len(derived),
		Scenarios:           len(scenarios),
		Tally:               res.Tally,
		Coverage:            fs.Coverage(),
		WeakSpots:           fs.WorstBySite(),
		FaultTree:           tree,
		TopEventProbability: top,
	}, nil
}

// String renders a one-paragraph summary.
func (s *Summary) String() string {
	return fmt.Sprintf("derived %d faults, ran %d scenarios, coverage %.0f%%, tally [%s], P(hazard)=%.3g",
		s.Derived, s.Scenarios, s.Coverage*100, s.Tally, s.TopEventProbability)
}
