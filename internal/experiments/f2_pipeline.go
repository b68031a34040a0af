package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/caps"
	"repro/internal/fault"
	"repro/internal/missionprofile"
	"repro/internal/report"
	"repro/internal/sim"
)

func init() {
	register(Experiment{ID: "F2", Title: "Fig. 2: system validation with mission profiles (executable)", Run: runF2})
}

// runF2 executes the paper's Fig. 2 flow end to end: an OEM mission
// profile is formalized, refined down the supply chain (OEM → Tier-1
// → semiconductor), fault/error descriptions are derived per level,
// scheduled into stressor scenarios and actually injected into the
// CAPS prototype. Each stage's artifact becomes a table row, making
// the conceptual figure a runnable pipeline.
func runF2() (*Result, error) {
	// Stage 1: formalize the OEM profile.
	refineDone := Phase("F2", "formalize-refine")
	oem := missionprofile.VehicleUnderhood("vehicle-front")
	if err := oem.Validate(); err != nil {
		return nil, err
	}
	// Stage 2: refine to the Tier-1 sensor cluster and on to the
	// semiconductor component.
	tier1, err := oem.Refine("caps-sensor-cluster", []missionprofile.TransferRule{
		{Kind: missionprofile.Vibration, Factor: 1.5},
		{Kind: missionprofile.Temperature, Factor: 1, Offset: -15},
	})
	if err != nil {
		return nil, err
	}
	semi, err := tier1.Refine("airbag-asic", []missionprofile.TransferRule{
		{Kind: missionprofile.Temperature, Factor: 1, Offset: 10}, // self-heating
		{Kind: missionprofile.Vibration, Factor: 0.8},             // board damping
	})
	if err != nil {
		return nil, err
	}

	pt := &report.Table{
		Title:   "F2a: mission profile refinement down the supply chain",
		Columns: []string{"level", "component", "vibration max (g)", "temperature max (degC)"},
	}
	for _, p := range []*missionprofile.Profile{oem, tier1, semi} {
		v, _ := p.Stress(missionprofile.Vibration)
		tp, _ := p.Stress(missionprofile.Temperature)
		pt.AddRow(p.Level.String(), p.Component, v.Max, tp.Max)
	}

	refineDone()

	// Stage 3: derive fault descriptions at the Tier-1 level against
	// the prototype's injection sites.
	deriveDone := Phase("F2", "derive")
	horizon := sim.MS(60)
	runner, err := caps.NewRunner(caps.Protected(), caps.NormalDriving(), horizon)
	if err != nil {
		return nil, err
	}
	derived, err := missionprofile.Derive(tier1, missionprofile.DefaultRules(), runner.Sites())
	if err != nil {
		return nil, err
	}
	deriveDone()
	dt := &report.Table{
		Title:   "F2b: derived fault/error descriptions (formalized stressor input)",
		Columns: []string{"descriptor", "stress", "model", "class", "FIT"},
	}
	for _, d := range derived {
		dt.AddRow(d.Descriptor.Name, d.Rule.Stress.String(), d.Descriptor.Model.String(),
			d.Descriptor.Class.String(), d.Descriptor.Rate)
	}

	// Stage 4: schedule into operating states and run the stressor.
	injectDone := Phase("F2", "schedule-inject")
	scenarios := missionprofile.Schedule(tier1, derived, horizon-sim.MS(5), rand.New(rand.NewSource(3)))
	res, err := campaign("mission-profile", runner, nil).Execute(scenarios)
	injectDone()
	if err != nil {
		return nil, err
	}
	tally := res.Tally
	st := &report.Table{
		Title:   "F2c: stressor campaign outcome (protected CAPS)",
		Columns: []string{"scenarios", "outcome tally"},
	}
	st.AddRow(len(scenarios), tally.String())

	holds := len(derived) > 0 && len(scenarios) == len(derived) && tally.Total() == len(scenarios) &&
		tally[fault.SafetyCritical] == 0
	return &Result{
		ID:         "F2",
		Title:      "Fig. 2 as an executable pipeline",
		Claim:      "mission profiles flow from the OEM down to the semiconductor manufacturer and parameterize the error-effect stressors (Sec. 3.2, Fig. 2)",
		Tables:     []*report.Table{pt, dt, st},
		ShapeHolds: holds,
		ShapeDetail: fmt.Sprintf(
			"pipeline produced %d derived descriptions, scheduled and injected all of them; protected system survived with tally %s",
			len(derived), tally),
	}, nil
}
