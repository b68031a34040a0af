// Command ftacalc evaluates the analytic dependability models of the
// CAPS case study: the G1 fault tree (minimal cut sets, top-event
// probability, importance ranking) and the FMEDA worksheet (SPFM,
// LFM, PMHF, ASIL).
//
// Usage:
//
//	ftacalc            # protected system
//	ftacalc -bare      # unprotected system
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/report"
	"repro/internal/safety"
)

func main() {
	bare := flag.Bool("bare", false, "evaluate the unprotected system")
	flag.Parse()

	tree := protectedTree()
	modes := protectedModes()
	label := "protected"
	if *bare {
		tree = unprotectedTree()
		modes = unprotectedModes()
		label = "unprotected"
	}

	fmt.Printf("CAPS %s system — analytic models\n\n", label)
	fmt.Println(tree)

	mcs := tree.MinimalCutSets()
	mt := &report.Table{Title: "Minimal cut sets", Columns: []string{"#", "events", "order"}}
	for i, cs := range mcs {
		mt.AddRow(i+1, fmt.Sprint([]string(cs)), len(cs))
	}
	fmt.Println(mt.Render())

	p, err := tree.TopEventProbability()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("Top-event probability (per mission): %.6g\n\n", p)

	imp, err := tree.Importance()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	it := &report.Table{Title: "Fussell-Vesely importance (weak spots)", Columns: []string{"event", "importance"}}
	for _, e := range imp {
		it.AddRow(e.Event, fmt.Sprintf("%.3f", e.FussellVesely))
	}
	fmt.Println(it.Render())

	res, err := safety.EvaluateFMEDA(modes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("FMEDA: %s\n", res)
}

// Event probabilities per mission (synthetic but consistent between
// the two variants).
const (
	pSensorShort = 1e-4
	pThresholdSA = 5e-5
)

// unprotectedTree is G1 (inadvertent deployment) for the bare system:
// single faults reach the hazard directly.
func unprotectedTree() *safety.Node {
	return safety.Or("G1-inadvertent-deployment",
		safety.BasicEvent("accel0-short-to-supply", pSensorShort),
		safety.BasicEvent("threshold-stuck-at-0", pThresholdSA),
	)
}

// protectedTree is G1 for the full system: each hazard path needs the
// causal fault AND the failure of its guarding mechanism.
func protectedTree() *safety.Node {
	return safety.Or("G1-inadvertent-deployment",
		safety.And("sensor-path",
			safety.BasicEvent("accel0-short-to-supply", pSensorShort),
			safety.BasicEvent("accel1-short-to-supply", pSensorShort), // defeats plausibility
		),
		safety.And("threshold-path",
			safety.BasicEvent("threshold-stuck-at-0", pThresholdSA),
			safety.BasicEvent("threshold-redundancy-check-fails", 1e-5),
		),
	)
}

func unprotectedModes() []safety.FailureMode {
	return []safety.FailureMode{
		{Component: "accel0", Mode: "short-to-supply", RateFIT: 100, SafeFraction: 0, DiagnosticCoverage: 0},
		{Component: "airbag", Mode: "threshold-sa0", RateFIT: 50, SafeFraction: 0, DiagnosticCoverage: 0},
		{Component: "fusion", Mode: "calib-upset", RateFIT: 200, SafeFraction: 0.5, DiagnosticCoverage: 0},
		{Component: "can", Mode: "corruption", RateFIT: 300, SafeFraction: 0, DiagnosticCoverage: 0.9},
	}
}

func protectedModes() []safety.FailureMode {
	return []safety.FailureMode{
		{Component: "accel0", Mode: "short-to-supply", RateFIT: 100, SafeFraction: 0, DiagnosticCoverage: 0.99, LatentCoverage: 0.9},
		{Component: "airbag", Mode: "threshold-sa0", RateFIT: 50, SafeFraction: 0, DiagnosticCoverage: 0.99, LatentCoverage: 0.9},
		{Component: "fusion", Mode: "calib-upset", RateFIT: 200, SafeFraction: 0.5, DiagnosticCoverage: 0.99, LatentCoverage: 1},
		{Component: "can", Mode: "corruption", RateFIT: 300, SafeFraction: 0, DiagnosticCoverage: 0.999, LatentCoverage: 1},
	}
}
