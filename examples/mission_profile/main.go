// Mission profile pipeline (the paper's Fig. 2): an OEM profile is
// refined down the supply chain, fault/error descriptions are derived
// from its environmental stresses, scheduled into operating states
// and injected into the CAPS prototype by the stressor. Run with:
//
//	go run ./examples/mission_profile
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/caps"
	"repro/internal/missionprofile"
	"repro/internal/sim"
	"repro/internal/stressor"
)

func main() {
	// OEM level: the vehicle's engine-compartment profile.
	oem := missionprofile.VehicleUnderhood("vehicle-front-zone")
	fmt.Printf("OEM profile %q: %d stresses, %d operating states, %.0f h mission\n",
		oem.Component, len(oem.Stresses), len(oem.States), oem.MissionHours)

	// Tier-1 level: the CAPS sensor cluster bolted to the firewall —
	// more vibration, a little cooler.
	tier1, err := oem.Refine("caps-sensor-cluster", []missionprofile.TransferRule{
		{Kind: missionprofile.Vibration, Factor: 1.5},
		{Kind: missionprofile.Temperature, Factor: 1, Offset: -15},
	})
	if err != nil {
		panic(err)
	}
	v, _ := tier1.Stress(missionprofile.Vibration)
	fmt.Printf("Tier-1 profile %q: vibration now %.0f..%.0f g\n", tier1.Component, v.Min, v.Max)

	// Derivation: environmental stresses become formal fault
	// descriptions against the prototype's injection sites.
	horizon := sim.MS(60)
	runner, err := caps.NewRunner(caps.Protected(), caps.NormalDriving(), horizon)
	if err != nil {
		panic(err)
	}
	derived, err := missionprofile.Derive(tier1, missionprofile.DefaultRules(), runner.Sites())
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nDerived %d fault/error descriptions:\n", len(derived))
	for _, d := range derived {
		fmt.Printf("  %-55s %-15s %-12s %6.0f FIT\n",
			d.Descriptor.Name, d.Descriptor.Model.String(), d.Descriptor.Class.String(), d.Descriptor.Rate)
	}

	// Scheduling: faults land in operating states proportionally to
	// state weight (stressful states attract more activations).
	scenarios := missionprofile.Schedule(tier1, derived, horizon-sim.MS(5), rand.New(rand.NewSource(1)))
	fmt.Printf("\nScheduled %d scenarios; injecting into the protected CAPS prototype:\n", len(scenarios))
	res, err := (&stressor.Campaign{Name: tier1.Component, Checkpointer: runner}).Execute(scenarios)
	if err != nil {
		panic(err)
	}
	for _, o := range res.Outcomes {
		fmt.Printf("  %-70s start=%-8v -> %s\n", o.Scenario.ID, o.Scenario.Faults[0].Start, o.Class)
	}
	fmt.Printf("\ncampaign tally: %s\n", res.Tally)
}
