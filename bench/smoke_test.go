package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// TestSmokeEveryWorkloadEmitsTheDeclaredMetrics runs both passes of
// every workload on a short window and holds what they emit against
// BENCHMARK.json: no metric missing, none undeclared, every unit as
// declared. It also loads the Chrome trace the traced pass writes.
func TestSmokeEveryWorkloadEmitsTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped by -short")
	}
	decl := readBenchmarkJSON(t)
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for _, m := range decl.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		wantLayer[m.Name] = m.Unit
	}

	wd, err := newWorkDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer wd.remove()
	// A quarter of the injection instants: the same code paths on rounds
	// short enough for a unit test.
	in := generate(1)
	in.CapsTimes, in.Pulses, in.ECUTimes = in.CapsTimes[:capsTimes/4], in.Pulses[:capsTimes/4], in.ECUTimes[:3]
	for i, times := range in.DaemonTimes {
		in.DaemonTimes[i] = times[:daemonInstants/4]
	}
	var out bytes.Buffer
	b := &bench{in: in, wd: wd, window: 300 * time.Millisecond, setUps: 1, host: describeHost(), out: &out}
	tracePath := filepath.Join(t.TempDir(), "smoke.trace.json")
	rec, err := b.suite(tracePath)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}

	if len(rec.Workloads) != len(decl.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json declares %d", len(rec.Workloads), len(decl.Workloads))
	}
	for i, w := range rec.Workloads {
		if w.Name != decl.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, w.Name, decl.Workloads[i].Name)
		}
		if !w.Correct || w.Failed != 0 || w.Attempted < 1 || w.FailedShare != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, w.Correct, w.Attempted, w.Failed)
		}
		sameSet(t, w.Name+" end_to_end", w.EndToEnd, wantE2E)
		sameSet(t, w.Name+" per_layer", w.PerLayer, wantLayer)
		for name, s := range w.EndToEnd {
			if s.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, s.Value)
			}
		}
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("Chrome trace does not load: %v", err)
	}
	kinds := map[string]bool{}
	for _, e := range trace.TraceEvents {
		kinds[e.Name] = true
	}
	for _, want := range []string{"round", "run", "engine.execute", "journal.append", "source.next", "http.flush", "http.submit"} {
		if !kinds[want] {
			t.Errorf("Chrome trace has no %q span", want)
		}
	}
}

// sameSet fails on any emitted metric that is not declared, any
// declared one that is not emitted, and any unit that differs.
func sameSet(t *testing.T, what string, got map[string]sample, want map[string]string) {
	t.Helper()
	var problems []string
	for name, s := range got {
		unit, ok := want[name]
		switch {
		case !ok:
			problems = append(problems, "undeclared "+name)
		case unit != s.Unit:
			problems = append(problems, name+" in "+s.Unit+", declared "+unit)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			problems = append(problems, "missing "+name)
		}
	}
	sort.Strings(problems)
	if len(problems) > 0 {
		t.Errorf("%s: %v", what, problems)
	}
}
