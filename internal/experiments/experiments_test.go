package experiments

import (
	"strings"
	"testing"
)

// The experiment suite is the reproduction: every registered
// experiment must run and its claimed shape must hold. One test per
// experiment keeps failures attributable.

func runAndCheck(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("%s failed: %v", id, err)
	}
	if !res.ShapeHolds {
		t.Errorf("%s shape violated: %s", id, res.ShapeDetail)
	}
	if len(res.Tables) == 0 || res.Claim == "" {
		t.Errorf("%s result incomplete", id)
	}
	out := res.Render()
	if !strings.Contains(out, id+":") || !strings.Contains(out, "Claim:") {
		t.Errorf("%s render incomplete:\n%s", id, out)
	}
	t.Logf("\n%s", out)
	return res
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "F2", "F3", "X1", "X2", "X3"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("All()[%d] = %s, want %s", i, all[i].ID, id)
		}
	}
	if _, ok := Get("E1"); !ok {
		t.Error("Get(E1) failed")
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get(nope) succeeded")
	}
}

func TestE1AbstractionLadder(t *testing.T)      { runAndCheck(t, "E1") }
func TestE2CrossLayer(t *testing.T)             { runAndCheck(t, "E2") }
func TestE3MutationVsCoverage(t *testing.T)     { runAndCheck(t, "E3") }
func TestE4MonteCarloVsGuided(t *testing.T)     { runAndCheck(t, "E4") }
func TestE5MissionProfile(t *testing.T)         { runAndCheck(t, "E5") }
func TestE6QuantumSweep(t *testing.T)           { runAndCheck(t, "E6") }
func TestE7SimFTA(t *testing.T)                 { runAndCheck(t, "E7") }
func TestE8SingleFaultCAPS(t *testing.T)        { runAndCheck(t, "E8") }
func TestE9MutationSchemata(t *testing.T)       { runAndCheck(t, "E9") }
func TestF2MissionProfilePipeline(t *testing.T) { runAndCheck(t, "F2") }
func TestF3ClosedLoop(t *testing.T)             { runAndCheck(t, "F3") }
func TestX1ConcolicATPG(t *testing.T)           { runAndCheck(t, "X1") }
func TestX2MechanismAblation(t *testing.T)      { runAndCheck(t, "X2") }
func TestX3FaultSimAcceleration(t *testing.T)   { runAndCheck(t, "X3") }
