package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/caps"
	"repro/internal/fault"
	"repro/internal/missionprofile"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stressor"
)

func init() {
	register(Experiment{ID: "E5", Title: "Mission-profile-derived stressors vs uniform random", Run: runE5})
}

// e5Runs is the campaign size per approach.
const e5Runs = 60

// runE5 compares two ways of choosing what to inject into the CAPS
// prototype: descriptors derived from the vehicle's mission profile
// (vibration → harness wiring faults, temperature → memory upsets,
// EMI → bus corruption, weighted into stressful operating states)
// versus uniform random sampling over the raw fault universe. The
// profile-driven campaign concentrates on environmentally plausible
// faults and exposes the mechanisms that handle them.
//
// Paper anchor (Sec. 3.2): "Mission Profiles are a promising approach
// for recognizing malfunction of a system or its components", and the
// derivation example: "Based on this vibration load, a probability of
// errors due to wiring, such as open load or short to ground, should
// be derived."
func runE5() (*Result, error) {
	horizon := sim.MS(60)
	runner, err := caps.NewRunner(caps.Protected(), caps.NormalDriving(), horizon)
	if err != nil {
		return nil, err
	}
	sites := runner.Sites()

	// Mission-profile pipeline (Fig. 2): OEM profile -> refine to the
	// sensor cluster -> derive fault descriptions -> schedule into
	// operating states.
	deriveDone := Phase("E5", "derive")
	oem := missionprofile.VehicleUnderhood("vehicle")
	tier1, err := oem.Refine("sensor-cluster", []missionprofile.TransferRule{
		{Kind: missionprofile.Vibration, Factor: 1.5}, // firewall mounting point
	})
	if err != nil {
		return nil, err
	}
	derived, err := missionprofile.Derive(tier1, missionprofile.DefaultRules(), sites)
	if err != nil {
		return nil, err
	}
	// Replicate derived faults to fill the campaign budget.
	var pool []missionprofile.Derived
	for len(pool) < e5Runs {
		pool = append(pool, derived...)
	}
	pool = pool[:e5Runs]
	mpScenarios := missionprofile.Schedule(tier1, pool, horizon-sim.MS(10), rand.New(rand.NewSource(11)))
	deriveDone()

	// Uniform baseline: random single faults over the raw universe.
	universe := runner.Universe(0)
	uniform := scenario.NewMonteCarlo(universe, e5Runs, rand.New(rand.NewSource(11)))
	uniform.Window = horizon - sim.MS(10)

	t := &report.Table{
		Title:   "E5: mission-profile-derived vs uniform random campaigns (protected CAPS)",
		Note:    fmt.Sprintf("%d runs each; harness share = fraction of injections on wiring-harness sites", e5Runs),
		Columns: []string{"campaign", "runs", "harness share", "detected-safe", "masked", "sdc", "distinct mechanisms exercised"},
	}
	// row adds a campaign's row to t: its tally, the distinct detection
	// mechanisms it exercised, and its harness share, which it returns.
	row := func(res *stressor.Result) float64 {
		mechanisms := map[string]bool{}
		harness := 0
		for _, o := range res.Outcomes {
			for _, d := range o.Scenario.Faults {
				if strings.Contains(d.Target, "harness") {
					harness++
				}
			}
			if o.Class == fault.DetectedSafe && o.Detail != "" {
				mechanisms[o.Detail] = true
			}
		}
		share := float64(harness) / float64(len(res.Outcomes))
		t.AddRow(res.Name, len(res.Outcomes), fmt.Sprintf("%.0f%%", share*100),
			res.Tally[fault.DetectedSafe], res.Tally[fault.Masked], res.Tally[fault.SDC], len(mechanisms))
		return share
	}

	mpDone := Phase("E5", "profile-campaign")
	mp, err := campaign("mission-profile", runner, nil).Execute(mpScenarios)
	mpDone()
	if err != nil {
		return nil, err
	}
	mpHarness := row(mp)
	mcDone := Phase("E5", "uniform-campaign")
	mc, err := campaign("uniform-random", runner, uniform).Execute(nil)
	mcDone()
	if err != nil {
		return nil, err
	}
	mcHarness := row(mc)

	// Derivation audit table (the Fig. 2 artifact).
	dt := &report.Table{
		Title:   "E5a: fault descriptions derived from the Tier-1 mission profile",
		Columns: []string{"descriptor", "model", "class", "FIT"},
	}
	for _, d := range derived {
		dt.AddRow(d.Descriptor.Name, d.Descriptor.Model.String(), d.Descriptor.Class.String(), d.Descriptor.Rate)
	}

	holds := mpHarness > mcHarness && len(derived) > 0
	return &Result{
		ID:         "E5",
		Title:      "Mission-profile-derived stressors vs uniform random",
		Claim:      "mission profiles let stressors target the faults the environment actually provokes (Sec. 3.2, Fig. 2)",
		Tables:     []*report.Table{t, dt},
		ShapeHolds: holds,
		ShapeDetail: fmt.Sprintf(
			"profile campaign concentrates %.0f%% of injections on vibration-exposed harness sites vs %.0f%% for uniform sampling, from %d derived descriptors",
			mpHarness*100, mcHarness*100, len(derived)),
	}, nil
}
