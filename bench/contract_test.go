package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go and workloads.go")

// benchmarkJSON mirrors BENCHMARK.json: exactly the keys the driver
// accepts.
type benchmarkJSON struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []jsonWorkload   `json:"workloads"`
	EndToEnd   []jsonEndToEnd   `json:"end_to_end"`
	PerLayer   []jsonLayerEntry `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonLayerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const benchmarkPath = "../BENCHMARK.json"

// declared is BENCHMARK.json as the tables in this package say it
// should be.
func declared() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: int(defaultWindow),
	}
	for _, name := range workloadNames {
		b.Workloads = append(b.Workloads, jsonWorkload{Name: name, Why: workloadWhy[name]})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonEndToEnd{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonLayerEntry{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return b
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("%s: %v", benchmarkPath, err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the Go tables
// one contract: same command, workloads, metrics, units, directions and
// bounds. Run with -update to regenerate the file.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := json.MarshalIndent(declared(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(benchmarkPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the tables in metrics.go and workloads.go; run go test ./bench -run TestBenchmarkJSONMatchesTables -update", benchmarkPath)
	}
}

// TestContractLimits checks BENCHMARK.json against the driver's schema:
// name and unit grammar, counts, bounds, the mandatory setup_s.
func TestContractLimits(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the name grammar", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range b.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	setup := false
	for _, m := range b.EndToEnd {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the unit grammar", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range b.PerLayer {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the unit grammar", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if runs := 4 + 22*len(b.Workloads); float64(runs)*float64(b.RunSeconds) > 3420 {
		t.Errorf("%d runs of %d s cannot end within 3420 s", runs, b.RunSeconds)
	}
}
