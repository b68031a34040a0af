package govp

// Smoke tests for every command and example binary: each main is
// built and run via `go run` and must exit 0 while printing a
// sentinel line of its expected output. Before these tests the
// cmd/ and examples/ trees compiled but never executed under
// `go test ./...`, so a crash at startup would have shipped silently.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMain executes `go run <pkg> <args...>` from the module root (the
// test working directory) and returns the combined output.
func runMain(t *testing.T, pkg string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", pkg}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %s %s: %v\n%s", pkg, strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestCommandSmoke(t *testing.T) {
	cases := []struct {
		name     string
		pkg      string
		args     []string
		sentinel string
	}{
		{"capsim-sites", "./cmd/capsim", []string{"-sites"}, "caps."},
		{"capsim-scenario", "./cmd/capsim",
			[]string{"-faults", "open @caps.accel0.harness from 5ms"}, "outcome:"},
		{"capsim-campaign", "./cmd/capsim", []string{"-campaign", "-workers", "-1"}, "tally:"},
		{"mutate-demo", "./cmd/mutate", []string{"-demo", "-workers", "4"}, "mutation score"},
		{"ftacalc", "./cmd/ftacalc", nil, "Minimal cut sets"},
		{"mpderive", "./cmd/mpderive", nil, "Derived formal fault/error descriptions"},
		{"vpsafety-list", "./cmd/vpsafety", []string{"-list"}, "E8"},
		{"vpsafety-e8", "./cmd/vpsafety", []string{"-exp", "E8"}, "Shape HOLDS"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := runMain(t, tc.pkg, tc.args...)
			if !strings.Contains(out, tc.sentinel) {
				t.Errorf("output of %s %v lacks %q:\n%s", tc.pkg, tc.args, tc.sentinel, out)
			}
		})
	}
}

// TestCapsimObservabilitySmoke runs the instrumented campaign end to
// end and validates both export files: the metrics snapshot must be
// valid JSON carrying per-class outcome counters and the scenario-
// duration histogram, and the trace file must be a spec-conformant
// Chrome trace-event document (a traceEvents array of events with
// name/ph/ts fields).
func TestCapsimObservabilitySmoke(t *testing.T) {
	dir := t.TempDir()
	mPath := filepath.Join(dir, "m.json")
	tPath := filepath.Join(dir, "t.json")
	out := runMain(t, "./cmd/capsim",
		"-campaign", "e8", "-metrics", mPath, "-trace-events", tPath, "-workers", "-1", "-progress")
	if !strings.Contains(out, "tally:") {
		t.Fatalf("campaign output lacks tally:\n%s", out)
	}
	if !strings.Contains(out, "e8:") {
		t.Errorf("progress stream lacks the campaign name:\n%s", out)
	}

	var m struct {
		Counters   map[string]uint64 `json:"counters"`
		Gauges     map[string]float64
		Histograms map[string]struct {
			Count uint64 `json:"count"`
			Sum   uint64 `json:"sum"`
		} `json:"histograms"`
	}
	mraw, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mraw, &m); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	outcomeClasses := 0
	for k := range m.Counters {
		if strings.HasPrefix(k, "campaign.outcomes{campaign=e8,") {
			outcomeClasses++
		}
	}
	if outcomeClasses == 0 {
		t.Errorf("no per-class outcome counters in %v", m.Counters)
	}
	runs := m.Counters["campaign.runs{campaign=e8}"]
	if runs == 0 {
		t.Error("campaign.runs counter missing or zero")
	}
	h, ok := m.Histograms["campaign.scenario_duration_ns{campaign=e8}"]
	if !ok || h.Count != runs || h.Sum == 0 {
		t.Errorf("scenario-duration histogram = %+v (ok=%v), want count=%d", h, ok, runs)
	}

	var tj struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	traw, err := os.ReadFile(tPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(traw, &tj); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(tj.TraceEvents) < int(runs) {
		t.Errorf("trace has %d events, want at least one per run (%d)", len(tj.TraceEvents), runs)
	}
	for i, ev := range tj.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.Ts == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("trace event %d incomplete: %+v", i, ev)
		}
	}
}

func TestExampleSmoke(t *testing.T) {
	cases := []struct {
		pkg      string
		sentinel string
	}{
		{"./examples/quickstart", "fault detected by the scoreboard"},
		{"./examples/virtual_ecu", "detected by lockstep"},
		{"./examples/caps_airbag", "crash check (G2)"},
		{"./examples/fta_fmeda", "top-event probability"},
		{"./examples/full_evaluation", "full safety evaluation"},
		{"./examples/mission_profile", "fault/error descriptions"},
		{"./examples/mutation_qualification", "mutation score"},
	}
	for _, tc := range cases {
		t.Run(strings.TrimPrefix(tc.pkg, "./examples/"), func(t *testing.T) {
			out := runMain(t, tc.pkg)
			if !strings.Contains(out, tc.sentinel) {
				t.Errorf("output of %s lacks %q:\n%s", tc.pkg, tc.sentinel, out)
			}
		})
	}
}
