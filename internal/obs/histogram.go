package obs

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the fixed exponential bucket count: bucket i holds
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i),
// with bucket 0 reserved for v == 0. Powers of two cover the full
// uint64 range — nanosecond durations and queue depths land in the
// same layout without per-histogram configuration.
const histBuckets = 65

// Histogram counts uint64 observations into fixed power-of-two
// exponential buckets, tracking count, sum, min and max exactly.
// All fields are atomics, so concurrent Observe calls from campaign
// workers need no locking; a relative error of at most 2x per bucket
// is the usual exponential-histogram trade-off.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	min    atomic.Uint64 // stored as ^v so zero-value means "unset"
	max    atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.counts[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	// min is stored bit-inverted so the zero value means "unset"
	// (effective min = ^0 = MaxUint64); lowering the effective min
	// raises the stored value, making both races simple CAS-max loops.
	for inv := ^v; ; {
		old := h.min.Load()
		if inv <= old || h.min.CompareAndSwap(old, inv) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Min returns the smallest observation (0 before any Observe).
func (h *Histogram) Min() uint64 {
	if h.count.Load() == 0 {
		return 0
	}
	return ^h.min.Load()
}

// Max returns the largest observation.
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Mean returns the arithmetic mean (0 before any Observe).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Bucket is one non-empty histogram bucket: Count observations were
// <= Le and greater than the previous bucket's Le.
type Bucket struct {
	Le    uint64 `json:"le"` // inclusive upper bound
	Count uint64 `json:"count"`
}

// bucketLe maps bucket index i to its inclusive upper bound: bucket 0
// holds only zero; bucket i holds [2^(i-1), 2^i - 1].
func bucketLe(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Buckets returns the non-empty buckets in ascending order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			out = append(out, Bucket{Le: bucketLe(i), Count: n})
		}
	}
	return out
}

// snapshot fills the histogram portion of a Metric.
func (h *Histogram) snapshot() Metric {
	return Metric{
		Count:   h.Count(),
		Sum:     h.Sum(),
		Min:     h.Min(),
		Max:     h.Max(),
		Mean:    h.Mean(),
		Buckets: h.Buckets(),
	}
}
