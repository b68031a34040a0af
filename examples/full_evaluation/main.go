// Full evaluation: the three-pillar façade (internal/core) runs the
// paper's entire methodology in one call — mission profile in,
// quantitative safety artifacts out. Run with:
//
//	go run ./examples/full_evaluation
package main

import (
	"fmt"

	"repro/internal/caps"
	"repro/internal/core"
	"repro/internal/missionprofile"
	"repro/internal/sim"
)

func main() {
	horizon := sim.MS(60)

	// The virtual prototype under evaluation.
	runner, err := caps.NewRunner(caps.Protected(), caps.NormalDriving(), horizon)
	if err != nil {
		panic(err)
	}

	// The mission profile of the component, refined from the vehicle
	// level to the sensor cluster's mounting point.
	profile, err := missionprofile.VehicleUnderhood("vehicle").Refine(
		"caps-sensor-cluster",
		[]missionprofile.TransferRule{{Kind: missionprofile.Vibration, Factor: 1.5}},
	)
	if err != nil {
		panic(err)
	}

	// Pillars (i) + (ii) + (iii) in one evaluation.
	ev := &core.Evaluation{
		Profile:   profile,
		Sites:     runner.Sites(),
		Run:       runner.RunScenario,
		Horizon:   horizon - sim.MS(5),
		Seed:      42,
		Replicate: 5,
	}
	summary, err := ev.Execute()
	if err != nil {
		panic(err)
	}

	fmt.Println("=== full safety evaluation of the CAPS sensor cluster ===")
	fmt.Printf("derived fault descriptions: %d\n", summary.Derived)
	fmt.Printf("stress tests executed:      %d\n", summary.Scenarios)
	fmt.Printf("fault-space coverage:       %.0f%%\n", summary.Coverage*100)
	fmt.Printf("outcome tally:              %s\n", summary.Tally)
	fmt.Println("weak-spot ranking:")
	for _, w := range summary.WeakSpots {
		fmt.Printf("  %-28s severity %d\n", w.Site, w.Severity)
	}
	fmt.Printf("synthesized hazard tree:\n%s", summary.FaultTree)
	fmt.Printf("P(hazard) under the profile: %.3g\n", summary.TopEventProbability)
	fmt.Println()
	fmt.Println(summary)
}
