package core

import (
	"strings"
	"testing"

	"repro/internal/caps"
	"repro/internal/fault"
	"repro/internal/missionprofile"
	"repro/internal/sim"
)

func capsEvaluation(t *testing.T, cfg caps.Config) *Evaluation {
	t.Helper()
	horizon := sim.MS(60)
	runner, err := caps.NewRunner(cfg, caps.NormalDriving(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := missionprofile.VehicleUnderhood("vehicle").Refine("caps", []missionprofile.TransferRule{
		{Kind: missionprofile.Vibration, Factor: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Evaluation{
		Profile:   profile,
		Sites:     runner.Sites(),
		Prototype: runner,
		Horizon:   horizon - sim.MS(5),
		Seed:      1,
		Replicate: 3,
	}
}

func TestEvaluationEndToEnd(t *testing.T) {
	ev := capsEvaluation(t, caps.Protected())
	s, err := ev.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if s.Derived == 0 || s.Scenarios != s.Derived*3 {
		t.Errorf("derived %d, scenarios %d", s.Derived, s.Scenarios)
	}
	if s.Tally.Total() != s.Scenarios {
		t.Errorf("tally total %d != scenarios %d", s.Tally.Total(), s.Scenarios)
	}
	if s.Coverage <= 0 || s.Coverage > 1 {
		t.Errorf("coverage = %v", s.Coverage)
	}
	if len(s.WeakSpots) == 0 {
		t.Error("no weak-spot ranking")
	}
	// Protected system under profile-derived single faults: no hazard.
	if s.Tally[fault.SafetyCritical] != 0 {
		t.Errorf("protected system failed: %s", s.Tally)
	}
	if s.TopEventProbability != 0 {
		t.Errorf("P(hazard) = %v, want 0 for a clean campaign", s.TopEventProbability)
	}
	if !strings.Contains(s.String(), "coverage") {
		t.Errorf("summary = %s", s)
	}
}

func TestEvaluationValidation(t *testing.T) {
	if _, err := (&Evaluation{}).Execute(); err == nil {
		t.Error("empty evaluation accepted")
	}
	ev := capsEvaluation(t, caps.Protected())
	ev.Horizon = 0
	if _, err := ev.Execute(); err == nil {
		t.Error("zero horizon accepted")
	}
	ev = capsEvaluation(t, caps.Protected())
	ev.Sites = []string{"nothing.matches"}
	if _, err := ev.Execute(); err == nil {
		t.Error("site set deriving no faults accepted")
	}
}

func TestEvaluationDeterministicPerSeed(t *testing.T) {
	a, err := capsEvaluation(t, caps.Protected()).Execute()
	if err != nil {
		t.Fatal(err)
	}
	b, err := capsEvaluation(t, caps.Protected()).Execute()
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed, different summaries:\n%s\n%s", a, b)
	}
}
