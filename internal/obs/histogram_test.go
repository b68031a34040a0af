package obs

import (
	"math/rand"
	"testing"
)

// TestMetricQuantile: the snapshot's estimator, which the report reads,
// interpolates inside the power-of-two bucket holding the q-th
// observation and clamps to the exactly tracked [Min, Max].
func TestMetricQuantile(t *testing.T) {
	observe := func(vs ...uint64) Metric {
		var h Histogram
		for _, v := range vs {
			h.Observe(v)
		}
		return h.snapshot()
	}
	var uniform, random []uint64
	for v := uint64(1); v <= 10000; v++ {
		uniform = append(uniform, v)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		random = append(random, uint64(rng.Int63n(1<<30)))
	}
	for _, tc := range []struct {
		name   string
		m      Metric
		q      float64
		lo, hi uint64 // the estimate's bounds, inclusive
	}{
		{"empty", Metric{}, 0.5, 0, 0},
		{"empty histogram", observe(), 0.5, 0, 0},
		{"single sample, q=0 is Min", observe(100), 0, 100, 100},
		{"single sample, q=1 is Max", observe(100), 1, 100, 100},
		{"single sample, median clamped to [Min,Max]", observe(100), 0.5, 100, 100},
		// Power-of-two buckets guarantee at most 2x relative error.
		{"uniform p50", observe(uniform...), 0.5, 2500, 10000},
		{"uniform p90", observe(uniform...), 0.9, 4500, 18000},
		{"uniform p99", observe(uniform...), 0.99, 4950, 19800},
		// Values in the open top bucket (>= 2^63) must not overflow.
		{"top bucket", observe(^uint64(0), ^uint64(0)-5), 0.99, 1 << 63, ^uint64(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.m.Quantile(tc.q); got < tc.lo || got > tc.hi {
				t.Errorf("Quantile(%v) = %d, want in [%d, %d]", tc.q, got, tc.lo, tc.hi)
			}
		})
	}
	// Quantiles never decrease in q and always stay inside [Min, Max].
	t.Run("monotone", func(t *testing.T) {
		m := observe(random...)
		prev := uint64(0)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := m.Quantile(q)
			if v < prev || v < m.Min || v > m.Max {
				t.Fatalf("Quantile(%v) = %d: previous %d, range [%d, %d]", q, v, prev, m.Min, m.Max)
			}
			prev = v
		}
	})
}
