package experiments

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/caps"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/safety"
	"repro/internal/sim"
)

func init() {
	register(Experiment{ID: "E7", Title: "Fault-tree synthesis from error-effect simulation", Run: runE7})
}

// runE7 derives the fault tree of the unprotected CAPS system's G1
// hazard (inadvertent deployment) purely from simulation outcomes —
// single faults plus all pairs over the dangerous sites — and checks
// it against an analytic tree built from design knowledge.
//
// Paper anchor (Sec. 2.1, [8]): "an approach to implicitly support
// the FTA with an error effect simulation"; the framework must offer
// "methods for creating FTs from the simulation results".
func runE7() (*Result, error) {
	runner, err := caps.NewRunner(caps.Unprotected(), caps.NormalDriving(), sim.MS(60))
	if err != nil {
		return nil, err
	}
	universe := runner.Universe(sim.MS(5))

	// Campaign: all singles, then all unordered pairs (the system has
	// no triple-point protection left to defeat, so pairs complete the
	// cut-set search for this DUT).
	var scenarios []fault.Scenario
	for _, d := range universe {
		scenarios = append(scenarios, fault.Single(d))
	}
	for i := 0; i < len(universe); i++ {
		for j := i + 1; j < len(universe); j++ {
			a, b := universe[i], universe[j]
			if a.Target == b.Target {
				continue // same-site pairs add nothing over singles here
			}
			scenarios = append(scenarios, fault.Scenario{ID: a.Name + "+" + b.Name, Faults: []fault.Descriptor{a, b}})
		}
	}
	campaignDone := Phase("E7", "campaign")
	res, err := campaign("singles+pairs", runner, nil).Execute(scenarios)
	campaignDone()
	if err != nil {
		return nil, err
	}

	// Event probabilities: uniform per-mission basic-event probability
	// (absolute rates are not the point; structure is).
	const p = 0.001
	probs := map[string]float64{}
	for _, d := range universe {
		probs[analysis.EventKey(d)] = p
	}
	isG1 := func(c fault.Classification) bool { return c == fault.SafetyCritical }
	synthDone := Phase("E7", "synthesize")
	synth := analysis.SynthesizeFaultTree("G1-inadvertent-deployment", res.Outcomes, isG1, probs, p)
	synthDone()

	// Analytic tree from design knowledge of the unprotected system:
	// any single fault forcing the (only) sensor to the rail fires the
	// airbag, as does a firing threshold collapsed to zero.
	analytic := safety.Or("G1-analytic",
		safety.BasicEvent("caps.accel0.harness/stuck-at-1", p),
		safety.BasicEvent("caps.accel0.harness/short-to-supply", p),
		safety.BasicEvent("caps.airbag.threshold/stuck-at-0", p),
	)

	synthMCS := synth.MinimalCutSets()
	analyticMCS := analytic.MinimalCutSets()
	pSynth, err := synth.TopEventProbability()
	if err != nil {
		return nil, err
	}
	pAnalytic, err := analytic.TopEventProbability()
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:   "E7: simulation-synthesized vs analytic fault tree (G1, unprotected CAPS)",
		Columns: []string{"metric", "synthesized", "analytic"},
	}
	t.AddRow("minimal cut sets", len(synthMCS), len(analyticMCS))
	t.AddRow("top-event probability", fmt.Sprintf("%.6g", pSynth), fmt.Sprintf("%.6g", pAnalytic))

	mt := &report.Table{
		Title:   "E7a: synthesized minimal cut sets",
		Columns: []string{"#", "cut set", "order"},
	}
	for i, cs := range synthMCS {
		mt.AddRow(i+1, fmt.Sprint([]string(cs)), len(cs))
	}

	sameMCS := cutSetsEqual(synthMCS, analyticMCS)
	probsAgree := math.Abs(pSynth-pAnalytic) < 1e-12

	return &Result{
		ID:         "E7",
		Title:      "Fault-tree synthesis from error-effect simulation",
		Claim:      "error-effect simulation can implicitly support the FTA — fault trees fall out of simulation results (Sec. 2.1, [8])",
		Tables:     []*report.Table{t, mt},
		ShapeHolds: sameMCS && probsAgree,
		ShapeDetail: fmt.Sprintf(
			"synthesized tree has identical minimal cut sets to the analytic tree: %v; top-event probabilities agree: %v",
			sameMCS, probsAgree),
	}, nil
}

func cutSetsEqual(a, b []safety.CutSet) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(cs safety.CutSet) string {
		out := ""
		for _, e := range cs {
			out += e + "|"
		}
		return out
	}
	have := map[string]bool{}
	for _, cs := range a {
		have[key(cs)] = true
	}
	for _, cs := range b {
		if !have[key(cs)] {
			return false
		}
	}
	return true
}
