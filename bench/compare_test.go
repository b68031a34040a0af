package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{7, 1, 10, 4, 2, 9, 3, 8, 5, 6}
	if got, want := quartileSpread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 12, 13], n=4) == [10.0, 12.0, 13.0]
	if got, want := quartileSpread([]float64{12, 10, 13}), 3.0/12; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three values = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestJudge(t *testing.T) {
	rate := metricDef{Name: "scenarios_per_s", Better: "higher", Bound: 0.10}
	wall := metricDef{Name: "campaign_s_p50", Better: "lower", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v} }
	cases := []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{rate, steady(100), steady(103), verdictUnchanged},
		{rate, steady(100), steady(80), verdictWorse},
		{rate, steady(100), steady(130), verdictImproved},
		{wall, steady(1), steady(1.3), verdictWorse},
		{wall, steady(1), steady(0.7), verdictImproved},
		{wall, []float64{1, 1.4, 0.7, 1.2}, steady(1), verdictUnresolved},
	}
	for _, c := range cases {
		if _, _, _, _, got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", c.def.Name, c.a, c.b, got, c.want)
		}
	}
}

// record builds a run whose every end-to-end metric of every workload
// is v.
func record(seed int64, v float64) *runRecord {
	rec := &runRecord{Seed: seed}
	for _, name := range workloadNames {
		w := workloadRecord{Name: name, Correct: true, Attempted: 10, EndToEnd: map[string]sample{}}
		for _, d := range endToEnd {
			w.EndToEnd[d.Name] = sample{Value: v, Unit: d.Unit}
		}
		rec.Workloads = append(rec.Workloads, w)
	}
	return rec
}

func TestCompareFilesExitsOnWorse(t *testing.T) {
	dir := t.TempDir()
	a, same, slow := filepath.Join(dir, "a.json"), filepath.Join(dir, "same.json"), filepath.Join(dir, "slow.json")
	for seed := int64(1); seed <= 3; seed++ {
		for path, v := range map[string]float64{a: 100, same: 101, slow: 150} {
			if err := appendRun(path, record(seed, v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out bytes.Buffer
	if code := run([]string{"-compare", a, same}, &out, &out); code != 0 {
		t.Errorf("A against an equal set exits %d:\n%s", code, out.String())
	}
	out.Reset()
	// Every metric 50 % larger: the lower-is-better ones are worse.
	if code := run([]string{"-compare", a, slow}, &out, &out); code != 1 {
		t.Errorf("A against a slower set exits %d, want 1:\n%s", code, out.String())
	}
	for _, want := range []string{verdictWorse, verdictImproved, "campaign_s_p50", wlFabric} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
}
