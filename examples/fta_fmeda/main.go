// Analytic-vs-simulated safety analysis: the classic expert-built
// fault tree and FMEDA (Sec. 2.1 of the paper) next to the fault tree
// synthesized from an error-effect simulation campaign (reference [8]
// / experiment E7). Run with:
//
//	go run ./examples/fta_fmeda
package main

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/caps"
	"repro/internal/fault"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/internal/stressor"
)

func main() {
	// --- Analytic side: expert-built models of the unprotected CAPS.
	const p = 0.001
	analytic := safety.Or("G1",
		safety.BasicEvent("caps.accel0.harness/stuck-at-1", p),
		safety.BasicEvent("caps.accel0.harness/short-to-supply", p),
		safety.BasicEvent("caps.airbag.threshold/stuck-at-0", p),
	)
	pa, err := analytic.TopEventProbability()
	if err != nil {
		panic(err)
	}
	fmt.Println("analytic fault tree (expert knowledge):")
	fmt.Print(analytic)
	fmt.Printf("top-event probability: %.6g\n\n", pa)

	fmeda, err := safety.EvaluateFMEDA([]safety.FailureMode{
		{Component: "accel0", Mode: "short", RateFIT: 120, DiagnosticCoverage: 0},
		{Component: "airbag", Mode: "threshold", RateFIT: 60, DiagnosticCoverage: 0},
		{Component: "fusion", Mode: "calib", RateFIT: 250, SafeFraction: 0.6, DiagnosticCoverage: 0},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("analytic FMEDA: %s\n\n", fmeda)

	// --- Simulated side: the same tree, synthesized from a campaign.
	runner, err := caps.NewRunner(caps.Unprotected(), caps.NormalDriving(), sim.MS(60))
	if err != nil {
		panic(err)
	}
	universe := runner.Universe(sim.MS(5))
	var scenarios []fault.Scenario
	probs := map[string]float64{}
	for _, d := range universe {
		scenarios = append(scenarios, fault.Single(d))
		probs[analysis.EventKey(d)] = p
	}
	res, err := (&stressor.Campaign{Name: "G1", Checkpointer: runner}).Execute(scenarios)
	if err != nil {
		panic(err)
	}
	synth := analysis.SynthesizeFaultTree("G1-from-simulation", res.Outcomes,
		func(c fault.Classification) bool { return c == fault.SafetyCritical }, probs, p)
	ps, err := synth.TopEventProbability()
	if err != nil {
		panic(err)
	}
	fmt.Println("fault tree synthesized from the error-effect campaign:")
	fmt.Print(synth)
	fmt.Printf("top-event probability: %.6g\n\n", ps)

	if pa == ps {
		fmt.Println("simulation reproduced the expert tree exactly — FTA fell out of the campaign ([8]).")
	} else {
		fmt.Printf("trees differ (analytic %.6g vs simulated %.6g): the campaign found structure the expert missed, or vice versa.\n", pa, ps)
	}
}
