package obs

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// promDoc is a parsed exposition document: TYPE by family name, value
// by full sample key (name{labels}).
type promDoc struct {
	types   map[string]string
	samples map[string]float64
	order   []string // sample keys in document order
}

// parseProm is a strict parser for the subset of the Prometheus text
// format the encoder emits. It fails the test on any malformed line,
// on duplicate samples, and on samples appearing before their family's
// TYPE line — the round-trip validity check of the acceptance criteria.
func parseProm(t *testing.T, text string) promDoc {
	t.Helper()
	doc := promDoc{types: map[string]string{}, samples: map[string]float64{}}
	curFamily := ""
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			name, kind := parts[2], parts[3]
			switch kind {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, kind)
			}
			if _, dup := doc.types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for family %q", ln+1, name)
			}
			doc.types[name] = kind
			curFamily = name
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: sample without value %q", ln+1, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", ln+1, valStr, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %d: unterminated label block %q", ln+1, key)
			}
			name = key[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && doc.types[strings.TrimSuffix(name, suf)] == "histogram" {
				base = strings.TrimSuffix(name, suf)
			}
		}
		if _, ok := doc.types[base]; !ok {
			t.Fatalf("line %d: sample %q before any TYPE line for %q", ln+1, key, base)
		}
		if base != curFamily {
			t.Fatalf("line %d: sample %q is not contiguous with its family %q (current family %q)",
				ln+1, key, base, curFamily)
		}
		for i := 0; i < len(name); i++ {
			c := name[i]
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' && i > 0 || c == '_' || c == ':') {
				t.Fatalf("line %d: invalid metric name %q", ln+1, name)
			}
		}
		if _, dup := doc.samples[key]; dup {
			t.Fatalf("line %d: duplicate sample %q", ln+1, key)
		}
		doc.samples[key] = val
		doc.order = append(doc.order, key)
	}
	return doc
}

func TestPromEncodeRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("campaign.runs", L("campaign", "e8")).Add(42)
	r.Counter("campaign.runs", L("campaign", "tiny")).Add(3)
	r.Gauge("campaignd.queue_depth").Set(7)
	r.Gauge("campaign.worker_utilization", L("campaign", "e8")).Set(0.625)
	h := r.Histogram("campaign.run_duration_ns", L("campaign", "e8"))
	h.Observe(0)
	h.Observe(1)
	h.Observe(900)
	h.Observe(1 << 20)

	var buf bytes.Buffer
	if err := NewPromEncoder().Encode(&buf, r); err != nil {
		t.Fatal(err)
	}
	doc := parseProm(t, buf.String())

	if doc.types["campaign_runs"] != "counter" {
		t.Errorf("campaign_runs type = %q", doc.types["campaign_runs"])
	}
	if doc.types["campaignd_queue_depth"] != "gauge" {
		t.Errorf("queue_depth type = %q", doc.types["campaignd_queue_depth"])
	}
	if doc.types["campaign_run_duration_ns"] != "histogram" {
		t.Errorf("run_duration type = %q", doc.types["campaign_run_duration_ns"])
	}
	if got := doc.samples[`campaign_runs{campaign="e8"}`]; got != 42 {
		t.Errorf(`campaign_runs{e8} = %v, want 42`, got)
	}
	if got := doc.samples[`campaign_runs{campaign="tiny"}`]; got != 3 {
		t.Errorf(`campaign_runs{tiny} = %v, want 3`, got)
	}
	if got := doc.samples[`campaign_worker_utilization{campaign="e8"}`]; got != 0.625 {
		t.Errorf("utilization = %v", got)
	}

	// Histogram conventions: cumulative buckets, +Inf == _count, _sum.
	if got := doc.samples[`campaign_run_duration_ns_count{campaign="e8"}`]; got != 4 {
		t.Errorf("_count = %v, want 4", got)
	}
	if got := doc.samples[`campaign_run_duration_ns_sum{campaign="e8"}`]; got != float64(0+1+900+1<<20) {
		t.Errorf("_sum = %v", got)
	}
	if got := doc.samples[`campaign_run_duration_ns_bucket{campaign="e8",le="+Inf"}`]; got != 4 {
		t.Errorf("+Inf bucket = %v, want 4", got)
	}
	// le="0" holds the zero observation; le="1023" has accumulated 0, 1
	// and 900.
	if got := doc.samples[`campaign_run_duration_ns_bucket{campaign="e8",le="0"}`]; got != 1 {
		t.Errorf(`bucket le=0 = %v, want 1`, got)
	}
	if got := doc.samples[`campaign_run_duration_ns_bucket{campaign="e8",le="1023"}`]; got != 3 {
		t.Errorf(`bucket le=1023 = %v, want 3`, got)
	}
	// Cumulative counts never decrease across the bucket series.
	prev := -1.0
	for _, key := range doc.order {
		if strings.HasPrefix(key, "campaign_run_duration_ns_bucket{") {
			if v := doc.samples[key]; v < prev {
				t.Fatalf("bucket series not cumulative at %s: %v < %v", key, v, prev)
			} else {
				prev = v
			}
		}
	}
}

// TestPromEncodeMergesRegistries: the daemon serves its aggregate
// registry plus every live per-run registry in one document; families
// with the same name must merge under a single TYPE line.
func TestPromEncodeMergesRegistries(t *testing.T) {
	agg, run1, run2 := NewRegistry(), NewRegistry(), NewRegistry()
	agg.Gauge("campaignd.queue_depth").Set(1)
	run1.Counter("campaign.runs", L("campaign", "a")).Add(5)
	run2.Counter("campaign.runs", L("campaign", "b")).Add(9)

	var buf bytes.Buffer
	if err := NewPromEncoder().Encode(&buf, agg, nil, run1, run2); err != nil {
		t.Fatal(err)
	}
	doc := parseProm(t, buf.String()) // contiguity enforced by the parser
	if doc.samples[`campaign_runs{campaign="a"}`] != 5 || doc.samples[`campaign_runs{campaign="b"}`] != 9 {
		t.Errorf("merged samples = %v", doc.samples)
	}
	if strings.Count(buf.String(), "# TYPE campaign_runs ") != 1 {
		t.Errorf("family emitted more than one TYPE line:\n%s", buf.String())
	}
}

func TestPromEncodeDeterministic(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		r.Counter("c", L("i", fmt.Sprintf("%02d", i))).Add(uint64(i))
	}
	r.Histogram("h").Observe(5)
	var a, b bytes.Buffer
	enc := NewPromEncoder()
	if err := enc.Encode(&a, r); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(&b, r); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two encodes of the same registry differ")
	}
}

func TestPromSanitizeAndEscape(t *testing.T) {
	r := NewRegistry()
	r.Counter("campaign.weird-name", L("path", `C:\tmp "x"`+"\n")).Inc()
	var buf bytes.Buffer
	if err := NewPromEncoder().Encode(&buf, r); err != nil {
		t.Fatal(err)
	}
	doc := parseProm(t, buf.String())
	want := `campaign_weird_name{path="C:\\tmp \"x\"\n"}`
	if _, ok := doc.samples[want]; !ok {
		t.Errorf("escaped sample %q missing; got %v", want, doc.samples)
	}

	cases := map[string]string{
		"a.b-c":   "a_b_c",
		"ok_name": "ok_name",
		"9lives":  "_9lives",
		"x:y":     "x:y",
	}
	for in, want := range cases {
		if got := promSanitize(in); got != want {
			t.Errorf("promSanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPromEncodeZeroAlloc pins the acceptance criterion directly:
// after the first encode warms the series cache, the hot path must not
// allocate.
func TestPromEncodeZeroAlloc(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 8; i++ {
		r.Counter("campaign.outcomes", L("class", fmt.Sprintf("c%d", i))).Add(uint64(i))
	}
	r.Gauge("campaignd.queue_depth").Set(3)
	h := r.Histogram("campaignd.queue_wait_ns")
	for i := uint64(1); i < 1<<20; i <<= 1 {
		h.Observe(i)
	}
	enc := NewPromEncoder()
	var sink bytes.Buffer
	if err := enc.Encode(&sink, r); err != nil { // warm caches
		t.Fatal(err)
	}
	sink.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		sink.Reset()
		if err := enc.Encode(&sink, r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Encode allocates %v times per call, want 0", allocs)
	}
}
