// Package obs is the repository's observability layer: a race-safe
// metrics registry (counters, gauges and fixed-exponential-bucket
// histograms, optionally labeled), a span recorder that exports the
// Chrome trace-event JSON format (viewable in chrome://tracing or
// Perfetto), and a rate-limited progress meter for long campaigns.
//
// The paper's central scaling challenge (Sec. 4) — making error-effect
// simulation campaigns tractable — starts with knowing where simulation
// time goes. This package provides the measurement substrate: the
// simulation kernel, the campaign engine, mutation qualification and
// the experiment harness all report into it, and every consumer is a
// nil-check away so an uninstrumented run pays nothing.
//
// Everything here is standard library only and safe for concurrent use
// (campaign worker pools hammer the same registry).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value dimension attached to a metric, e.g. the
// outcome class on a campaign counter.
type Label struct {
	Key   string
	Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// fullName renders name plus sorted labels into the canonical metric
// key: "campaign.outcomes{campaign=e8,class=sdc}".
func fullName(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable float64 (worker utilization, queue levels).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry holds the metric families of one process (or one campaign).
// Metric constructors are get-or-create: asking twice for the same
// name+labels returns the same instance, so call sites need no
// coordination.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	meta       map[string]metricMeta // full name -> parsed name/labels
}

type metricMeta struct {
	name   string
	labels []Label
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		meta:       map[string]metricMeta{},
	}
}

func (r *Registry) remember(full, name string, labels []Label) {
	if _, ok := r.meta[full]; ok {
		return
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	r.meta[full] = metricMeta{name: name, labels: ls}
}

// Counter returns the counter with the given name and labels, creating
// it on first use. Safe to call from any goroutine; nil receivers
// return a usable throwaway counter so call sites can stay unguarded.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{}
	}
	full := fullName(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[full]
	if !ok {
		c = &Counter{}
		r.counters[full] = c
		r.remember(full, name, labels)
	}
	return c
}

// Gauge returns the gauge with the given name and labels, creating it
// on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	full := fullName(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[full]
	if !ok {
		g = &Gauge{}
		r.gauges[full] = g
		r.remember(full, name, labels)
	}
	return g
}

// Histogram returns the histogram with the given name and labels,
// creating it on first use. All histograms share the fixed
// power-of-two exponential bucket layout (see Histogram).
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return &Histogram{}
	}
	full := fullName(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[full]
	if !ok {
		h = &Histogram{}
		r.histograms[full] = h
		r.remember(full, name, labels)
	}
	return h
}

// Metric is one snapshot entry. Counters and gauges fill Value;
// histograms fill Count/Sum/Min/Max/Mean and Buckets.
type Metric struct {
	Kind    string  // "counter", "gauge" or "histogram"
	Name    string  // base name without labels
	Full    string  // canonical name{labels} key
	Labels  []Label // sorted by key
	Value   float64 // counter or gauge reading
	Count   uint64
	Sum     uint64
	Min     uint64
	Max     uint64
	Mean    float64
	Buckets []Bucket // non-empty histogram buckets, ascending
}

// Label returns the value of the label with the given key, or "".
func (m Metric) Label(key string) string {
	for _, l := range m.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// Quantile estimates the q-quantile of a histogram Metric from its
// snapshot buckets: it walks the cumulative counts to the bucket
// holding the q-th observation and interpolates linearly inside it,
// clamping the result to the exactly tracked [Min, Max] range so small
// samples never report a value outside what was observed.
// Non-histogram metrics and empty histograms return 0.
func (m Metric) Quantile(q float64) uint64 {
	if m.Count == 0 || len(m.Buckets) == 0 {
		return 0
	}
	if q <= 0 {
		return m.Min
	}
	if q >= 1 {
		return m.Max
	}
	rank := uint64(q * float64(m.Count))
	if float64(rank) < q*float64(m.Count) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > m.Count {
		rank = m.Count
	}
	var cum uint64
	for _, b := range m.Buckets {
		if cum+b.Count >= rank {
			// The power-of-two layout fixes a bucket's true range from its
			// upper bound alone: Le = 2^i - 1 covers [2^(i-1), 2^i - 1].
			lo, le := uint64(0), b.Le
			switch {
			case le == 0:
				// zero-only bucket
			case le == ^uint64(0):
				lo, le = 1<<63, 1<<63
			default:
				lo = (le + 1) / 2
			}
			frac := (float64(rank-cum) - 0.5) / float64(b.Count)
			v := float64(lo) + frac*float64(le-lo)
			est := uint64(v)
			if est < m.Min {
				est = m.Min
			}
			if est > m.Max {
				est = m.Max
			}
			return est
		}
		cum += b.Count
	}
	return m.Max
}

// Snapshot returns a point-in-time copy of every metric, sorted by
// canonical name. Concurrent writers may land between individual
// reads; each single metric is read atomically.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for full, c := range r.counters {
		m := r.meta[full]
		out = append(out, Metric{Kind: "counter", Name: m.name, Full: full,
			Labels: m.labels, Value: float64(c.Value())})
	}
	for full, g := range r.gauges {
		m := r.meta[full]
		out = append(out, Metric{Kind: "gauge", Name: m.name, Full: full,
			Labels: m.labels, Value: g.Value()})
	}
	for full, h := range r.histograms {
		m := r.meta[full]
		snap := h.snapshot()
		snap.Kind, snap.Name, snap.Full, snap.Labels = "histogram", m.name, full, m.labels
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Full < out[j].Full })
	return out
}

// jsonHistogram is the wire form of one histogram.
type jsonHistogram struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets"`
}

// WriteJSON dumps the registry as one JSON object with "counters",
// "gauges" and "histograms" maps keyed by canonical metric name. Keys
// are emitted in sorted order (encoding/json sorts map keys), so two
// dumps of identical metric values are byte-identical.
func (r *Registry) WriteJSON(w io.Writer) error {
	type dump struct {
		Counters   map[string]uint64        `json:"counters"`
		Gauges     map[string]float64       `json:"gauges"`
		Histograms map[string]jsonHistogram `json:"histograms"`
	}
	d := dump{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]jsonHistogram{},
	}
	for _, m := range r.Snapshot() {
		switch m.Kind {
		case "counter":
			d.Counters[m.Full] = uint64(m.Value)
		case "gauge":
			d.Gauges[m.Full] = m.Value
		case "histogram":
			d.Histograms[m.Full] = jsonHistogram{Count: m.Count, Sum: m.Sum,
				Min: m.Min, Max: m.Max, Mean: m.Mean, Buckets: m.Buckets}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteMetricsFile dumps the registry to path as JSON. A nil registry
// is a no-op, so CLIs can call it unconditionally.
func WriteMetricsFile(r *Registry, path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: close %s: %w", path, err)
	}
	return nil
}
