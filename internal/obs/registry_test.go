package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("runs") != c {
		t.Error("Counter not get-or-create")
	}
	g := r.Gauge("util")
	g.Set(0.75)
	if got := g.Value(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("gauge = %v, want 0.75", got)
	}
}

func TestLabelsCanonicalOrder(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("outcomes", L("class", "sdc"), L("campaign", "e8"))
	b := r.Counter("outcomes", L("campaign", "e8"), L("class", "sdc"))
	if a != b {
		t.Fatal("label order changed metric identity")
	}
	a.Inc()
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d metrics, want 1", len(snap))
	}
	if snap[0].Full != "outcomes{campaign=e8,class=sdc}" {
		t.Errorf("canonical name = %q", snap[0].Full)
	}
	if snap[0].Label("class") != "sdc" || snap[0].Label("missing") != "" {
		t.Errorf("label lookup failed: %+v", snap[0].Labels)
	}
}

func TestHistogramBucketsAndStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dur")
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000, 1 << 40} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 0+1+2+3+4+1000+1<<40 {
		t.Errorf("sum = %d", h.Sum())
	}
	if h.Min() != 0 || h.Max() != 1<<40 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
	// Expected buckets: le=0:{0}, le=1:{1}, le=3:{2,3}, le=7:{4},
	// le=1023:{1000}, le=2^41-1:{2^40}.
	want := []Bucket{
		{Le: 0, Count: 1}, {Le: 1, Count: 1}, {Le: 3, Count: 2},
		{Le: 7, Count: 1}, {Le: 1023, Count: 1}, {Le: 1<<41 - 1, Count: 1},
	}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Errorf("empty histogram not all-zero: min=%d max=%d mean=%v",
			h.Min(), h.Max(), h.Mean())
	}
}

func TestNilRegistryIsUsable(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z").Observe(1)
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot not nil")
	}
	if err := WriteMetricsFile(r, "/nonexistent/dir/file.json"); err != nil {
		t.Errorf("nil registry dump errored: %v", err)
	}
}

// TestRegistryConcurrent exercises every metric kind from many
// goroutines; run with -race this is the registry's safety contract.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("c", L("w", "shared")).Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h").Observe(uint64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c", L("w", "shared")).Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	h := r.Histogram("h")
	if h.Count() != workers*iters || h.Min() != 0 || h.Max() != iters-1 {
		t.Errorf("histogram count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
}

func TestWriteJSONDeterministicAndValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("outcomes", L("class", "sdc")).Add(3)
	r.Counter("outcomes", L("class", "masked")).Add(7)
	r.Gauge("util").Set(0.9)
	r.Histogram("dur").Observe(123)

	var a, b bytes.Buffer
	if err := r.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two dumps of identical registry differ")
	}
	var parsed struct {
		Counters   map[string]uint64 `json:"counters"`
		Gauges     map[string]float64
		Histograms map[string]struct {
			Count   uint64
			Buckets []Bucket
		}
	}
	if err := json.Unmarshal(a.Bytes(), &parsed); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, a.String())
	}
	if parsed.Counters["outcomes{class=sdc}"] != 3 {
		t.Errorf("counters = %v", parsed.Counters)
	}
	if h := parsed.Histograms["dur"]; h.Count != 1 || len(h.Buckets) != 1 {
		t.Errorf("histogram = %+v", h)
	}
}
