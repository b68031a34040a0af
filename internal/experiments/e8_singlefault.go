package experiments

import (
	"fmt"

	"repro/internal/caps"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/internal/stressor"
)

func init() {
	register(Experiment{ID: "E8", Title: "Exhaustive single-fault campaign and FMEDA on CAPS", Run: runE8})
}

// runE8 is the headline reproduction: the paper's one concrete safety
// requirement — "it must be absolutely guaranteed that the failure of
// any system component does not trigger the airbag in normal
// operation" (Sec. 1) — checked by exhaustive single-fault injection
// over the CAPS virtual prototype, with the safety mechanisms enabled
// and disabled, folded into an FMEDA whose diagnostic coverage comes
// from the campaign itself.
func runE8() (*Result, error) {
	horizon := sim.MS(80)

	runCampaign := func(cfg caps.Config, name string) (*stressor.Result, []fault.Descriptor, error) {
		done := Phase("E8", "campaign:"+name)
		defer done()
		runner, err := caps.NewRunner(cfg, caps.NormalDriving(), horizon)
		if err != nil {
			return nil, nil, err
		}
		universe := runner.Universe(sim.MS(10))
		var scenarios []fault.Scenario
		for _, d := range universe {
			scenarios = append(scenarios, fault.Single(d))
		}
		res, err := campaign(name, runner, nil).Execute(scenarios)
		return res, universe, err
	}

	prot, protU, err := runCampaign(caps.Protected(), "protected")
	if err != nil {
		return nil, err
	}
	unprot, unprotU, err := runCampaign(caps.Unprotected(), "unprotected")
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:   "E8: exhaustive single-fault campaign, normal driving (goal G1)",
		Columns: []string{"configuration", "faults", "no-effect", "masked", "latent", "detected-safe", "sdc", "safety-critical"},
	}
	addTally := func(name string, n int, tally fault.Tally) {
		t.AddRow(name, n, tally[fault.NoEffect], tally[fault.Masked], tally[fault.Latent],
			tally[fault.DetectedSafe], tally[fault.SDC], tally[fault.SafetyCritical])
	}
	addTally("protected", len(protU), prot.Tally)
	addTally("unprotected", len(unprotU), unprot.Tally)

	// FMEDA: one failure mode per descriptor, 100 FIT each; diagnostic
	// coverage measured from the campaign (detected-safe = covered,
	// masked/no-effect = safe by architecture, failures = uncovered).
	worksheet := func(res *stressor.Result) *safety.FMEDAResult {
		var modes []safety.FailureMode
		for _, o := range res.Outcomes {
			m := safety.FailureMode{
				Component: o.Scenario.Faults[0].Target,
				Mode:      o.Scenario.Faults[0].Model.String(),
				RateFIT:   100,
			}
			switch o.Class {
			case fault.NoEffect, fault.Masked:
				m.SafeFraction = 1
			case fault.DetectedSafe:
				m.DiagnosticCoverage = 1
				m.LatentCoverage = 1
			case fault.Latent:
				m.DiagnosticCoverage = 1
				m.LatentCoverage = 0
			default: // SDC, timing, safety-critical: dangerous undetected
			}
			modes = append(modes, m)
		}
		r, err := safety.EvaluateFMEDA(modes)
		if err != nil {
			panic(err) // modes are constructed in-range
		}
		return r
	}
	fmedaDone := Phase("E8", "fmeda")
	fProt := worksheet(prot)
	fUnprot := worksheet(unprot)
	fmedaDone()

	ft := &report.Table{
		Title:   "E8a: FMEDA metrics with campaign-measured diagnostic coverage",
		Note:    "uniform 100 FIT per failure mode; see DESIGN.md for the simplified metric definitions",
		Columns: []string{"configuration", "SPFM", "LFM", "PMHF (/h)", "ASIL"},
	}
	ft.AddRow("protected", fmt.Sprintf("%.1f%%", fProt.SPFM*100), fmt.Sprintf("%.1f%%", fProt.LFM*100),
		fmt.Sprintf("%.2g", fProt.PMHF), fProt.ASIL().String())
	ft.AddRow("unprotected", fmt.Sprintf("%.1f%%", fUnprot.SPFM*100), fmt.Sprintf("%.1f%%", fUnprot.LFM*100),
		fmt.Sprintf("%.2g", fUnprot.PMHF), fUnprot.ASIL().String())

	protClean := prot.Tally[fault.SafetyCritical] == 0
	unprotDirty := unprot.Tally[fault.SafetyCritical] > 0
	spfmBetter := fProt.SPFM > fUnprot.SPFM

	return &Result{
		ID:         "E8",
		Title:      "Exhaustive single-fault campaign and FMEDA on CAPS",
		Claim:      "it must be absolutely guaranteed that the failure of any system component does not trigger the airbag in normal operation (Sec. 1)",
		Tables:     []*report.Table{t, ft},
		ShapeHolds: protClean && unprotDirty && spfmBetter,
		ShapeDetail: fmt.Sprintf(
			"protected: %d/%d safety-critical outcomes; unprotected: %d; SPFM %.1f%% vs %.1f%%",
			prot.Tally[fault.SafetyCritical], len(protU), unprot.Tally[fault.SafetyCritical],
			fProt.SPFM*100, fUnprot.SPFM*100),
	}, nil
}
