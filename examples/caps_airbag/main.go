// CAPS airbag case study: the paper's Fig. 1 system as a virtual
// prototype, exercised by the single-fault campaign behind its one
// concrete safety requirement — "the failure of any system component
// must not trigger the airbag in normal operation".
//
// The campaign runs twice (safety mechanisms on and off) and prints
// the outcome tally plus every G1 violation found, and the sites the
// first violation's error propagated through. Run with:
//
//	go run ./examples/caps_airbag
package main

import (
	"fmt"
	"strings"

	"repro/internal/caps"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stressor"
)

func main() {
	horizon := sim.MS(80)

	for _, cfg := range []struct {
		name string
		c    caps.Config
	}{
		{"PROTECTED (plausibility, calib CRC, threshold redundancy, frame watchdog)", caps.Protected()},
		{"UNPROTECTED (all mechanisms disabled)", caps.Unprotected()},
	} {
		fmt.Println("=== " + cfg.name + " ===")
		runner, err := caps.NewRunner(cfg.c, caps.NormalDriving(), horizon)
		if err != nil {
			panic(err)
		}
		var scenarios []fault.Scenario
		for _, d := range runner.Universe(sim.MS(10)) {
			scenarios = append(scenarios, fault.Single(d))
		}
		campaign := &stressor.Campaign{Name: cfg.name, Checkpointer: runner}
		res, err := campaign.Execute(scenarios)
		if err != nil {
			panic(err)
		}

		t := &report.Table{
			Title:   fmt.Sprintf("%d single faults, normal driving", len(scenarios)),
			Columns: []string{"class", "count"},
		}
		for c := fault.NoEffect; c <= fault.SafetyCritical; c++ {
			if n := res.Tally[c]; n > 0 {
				t.AddRow(c.String(), n)
			}
		}
		fmt.Println(t.Render())

		if viol := res.ByClass(fault.SafetyCritical); len(viol) > 0 {
			fmt.Println("G1 violations (inadvertent deployment):")
			for _, o := range viol {
				fmt.Printf("  %-45s %s\n", o.Scenario.ID, o.Detail)
			}
			_, tr := runner.RunScenarioTraced(viol[0].Scenario)
			fmt.Printf("propagation of %s: %s\n", viol[0].Scenario.ID, strings.Join(tr.SitesVisited(), " -> "))
		} else {
			fmt.Println("G1 holds: no single fault triggers the airbag.")
		}
		fmt.Println()
	}

	// And the dual: in a real crash the protected system still fires.
	runner, err := caps.NewRunner(caps.Protected(), caps.CrashAt(sim.MS(20)), horizon)
	if err != nil {
		panic(err)
	}
	fmt.Printf("crash check (G2): golden crash run deploys = %t\n", caps.Fired(runner.Golden()))
}
