package obs

import (
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// PromEncoder renders registries in the Prometheus text exposition
// format (version 0.0.4) — the live scrape surface of the campaign
// daemon. Counters and gauges emit one sample per label set;
// histograms emit the conventional cumulative series: one
// <name>_bucket{le="..."} sample per power-of-two bucket (every
// bucket, so the family shape is deterministic and goldenfile-able),
// an le="+Inf" bucket, plus <name>_sum and <name>_count.
//
// The encoder is built for a daemon's /metrics hot path: rendered
// metric names and label blocks are cached per series, sample values
// are formatted with strconv.Append* into one reused buffer, and the
// row scratch is reused across calls — once every series has been
// seen, Encode performs zero allocations (BenchmarkObsExposition pins
// this). An encoder is safe for concurrent use; calls serialize.
type PromEncoder struct {
	mu    sync.Mutex
	buf   []byte
	rows  []promRow
	cache map[string]*promSeries
}

// promSeries caches the per-series rendering work: the sanitized
// family name and the label block body (`campaign="e8"`, no braces).
type promSeries struct {
	name   string
	labels []byte
}

// promRow is one series scheduled for emission in the current Encode.
type promRow struct {
	kind byte // 'c', 'g', 'h' — also the family sort tiebreak
	s    *promSeries
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// NewPromEncoder creates an empty encoder.
func NewPromEncoder() *PromEncoder {
	return &PromEncoder{cache: map[string]*promSeries{}}
}

// promLe holds the pre-rendered inclusive upper bound of every
// histogram bucket, so the hot path never formats them.
var promLe = func() [histBuckets]string {
	var out [histBuckets]string
	for i := range out {
		out[i] = strconv.FormatUint(bucketLe(i), 10)
	}
	return out
}()

// promSanitize maps a metric or label name into the Prometheus
// identifier alphabet [a-zA-Z0-9_:], rewriting everything else
// (dots, dashes) to underscores.
func promSanitize(name string) string {
	ok := true
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' ||
			(c >= '0' && c <= '9' && i > 0) {
			continue
		}
		ok = false
		break
	}
	if ok {
		return name
	}
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape appends a label value with `\`, `"` and newlines escaped
// per the exposition format.
func promEscape(dst []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '"':
			dst = append(dst, '\\', '"')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// series returns (building and caching on first sight) the rendered
// form of the metric with canonical key full.
func (e *PromEncoder) series(full string, m metricMeta) *promSeries {
	if s, ok := e.cache[full]; ok {
		return s
	}
	s := &promSeries{name: promSanitize(m.name)}
	for i, l := range m.labels {
		if i > 0 {
			s.labels = append(s.labels, ',')
		}
		s.labels = append(s.labels, promSanitize(l.Key)...)
		s.labels = append(s.labels, '=', '"')
		s.labels = promEscape(s.labels, l.Value)
		s.labels = append(s.labels, '"')
	}
	e.cache[full] = s
	return s
}

// collect drains one registry's series into the row scratch.
func (e *PromEncoder) collect(r *Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for full, c := range r.counters {
		e.rows = append(e.rows, promRow{kind: 'c', s: e.series(full, r.meta[full]), c: c})
	}
	for full, g := range r.gauges {
		e.rows = append(e.rows, promRow{kind: 'g', s: e.series(full, r.meta[full]), g: g})
	}
	for full, h := range r.histograms {
		e.rows = append(e.rows, promRow{kind: 'h', s: e.series(full, r.meta[full]), h: h})
	}
}

// promRowLess orders rows so each family (name+kind) is contiguous —
// the format requires a family's samples to follow its TYPE line —
// with label sets in a stable order inside the family.
func promRowLess(a, b promRow) int {
	if a.s.name != b.s.name {
		return strings.Compare(a.s.name, b.s.name)
	}
	if a.kind != b.kind {
		return int(a.kind) - int(b.kind)
	}
	return slices.Compare(a.s.labels, b.s.labels)
}

// sample opens one sample line: name, optional label block (with an
// optional extra le label for histogram buckets), trailing space.
func promOpen(buf []byte, name string, suffix string, labels []byte, le string) []byte {
	buf = append(buf, name...)
	buf = append(buf, suffix...)
	if len(labels) > 0 || le != "" {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		if le != "" {
			if len(labels) > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `le="`...)
			buf = append(buf, le...)
			buf = append(buf, '"')
		}
		buf = append(buf, '}')
	}
	return append(buf, ' ')
}

// Encode writes every metric of the given registries (nils skipped)
// as one exposition document. Families with the same name merge
// across registries; the daemon encodes its aggregate registry and
// the live per-run registries in one call.
func (e *PromEncoder) Encode(w io.Writer, regs ...*Registry) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rows = e.rows[:0]
	for _, r := range regs {
		if r != nil {
			e.collect(r)
		}
	}
	slices.SortFunc(e.rows, promRowLess)

	buf := e.buf[:0]
	prevName, prevKind := "", byte(0)
	for _, row := range e.rows {
		if row.s.name != prevName || row.kind != prevKind {
			prevName, prevKind = row.s.name, row.kind
			buf = append(buf, `# TYPE `...)
			buf = append(buf, row.s.name...)
			switch row.kind {
			case 'c':
				buf = append(buf, " counter\n"...)
			case 'g':
				buf = append(buf, " gauge\n"...)
			case 'h':
				buf = append(buf, " histogram\n"...)
			}
		}
		switch row.kind {
		case 'c':
			buf = promOpen(buf, row.s.name, "", row.s.labels, "")
			buf = strconv.AppendUint(buf, row.c.Value(), 10)
			buf = append(buf, '\n')
		case 'g':
			buf = promOpen(buf, row.s.name, "", row.s.labels, "")
			buf = strconv.AppendFloat(buf, row.g.Value(), 'g', -1, 64)
			buf = append(buf, '\n')
		case 'h':
			// Cumulative buckets. The +Inf bucket and _count reuse the
			// same cumulative total so the document is self-consistent
			// even when observations land mid-encode.
			var cum uint64
			for i := 0; i < histBuckets; i++ {
				cum += row.h.counts[i].Load()
				buf = promOpen(buf, row.s.name, "_bucket", row.s.labels, promLe[i])
				buf = strconv.AppendUint(buf, cum, 10)
				buf = append(buf, '\n')
			}
			buf = promOpen(buf, row.s.name, "_bucket", row.s.labels, "+Inf")
			buf = strconv.AppendUint(buf, cum, 10)
			buf = append(buf, '\n')
			buf = promOpen(buf, row.s.name, "_sum", row.s.labels, "")
			buf = strconv.AppendUint(buf, row.h.Sum(), 10)
			buf = append(buf, '\n')
			buf = promOpen(buf, row.s.name, "_count", row.s.labels, "")
			buf = strconv.AppendUint(buf, cum, 10)
			buf = append(buf, '\n')
		}
	}
	e.buf = buf
	_, err := w.Write(buf)
	return err
}
