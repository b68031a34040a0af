package stressor

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// fmtDescKey and fmtUniverseHash are descKey and UniverseHash as they
// were written until they stopped going through fmt, kept as the oracle:
// every journal header, dedup key and memo key written before then holds
// these bytes, so the fmt-free forms must reproduce them exactly.
func fmtDescKey(d fault.Descriptor) string {
	return fmt.Sprintf("%v|%v|%v|%s|%d|%d|%g|%d|%d|%d|%g",
		d.Model, d.Class, d.Domain, d.Target, d.Bit, d.Address, d.Param,
		d.Start, d.Duration, d.Period, d.Rate)
}

func fmtUniverseHash(scenarios []fault.Scenario) string {
	h := fnv.New64a()
	for _, sc := range scenarios {
		io.WriteString(h, sc.ID)
		h.Write([]byte{0x00})
		for _, d := range sc.Faults {
			io.WriteString(h, d.Name)
			h.Write([]byte{0x01})
			io.WriteString(h, fmtDescKey(d))
			h.Write([]byte{0x02})
		}
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// edgeFloats are the values where %g changes shape: signed zero, the
// exponent thresholds on both sides, shortest-digit cases, non-numbers.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 0.5, -0.25, 1e21, 1e20, 1e-7, 1e-4, 1e-5, 99999, 100000, 999999, 1e6, 1234567,
	123456.7, 1.0000000000000002, math.MaxFloat64, math.SmallestNonzeroFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), float64(float32(0.1)),
}

// randomDescriptor draws every field, unknown enum values and edge
// floats included.
func randomDescriptor(rng *rand.Rand) fault.Descriptor {
	float := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return edgeFloats[rng.Intn(len(edgeFloats))]
		case 1:
			return math.Float64frombits(rng.Uint64())
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	targets := []string{"m", "caps.accel0.harness", "ecu.mem", "a|b", "sp ace", "ünï", ""}
	return fault.Descriptor{
		Name:  fmt.Sprintf("n%d", rng.Intn(100)),
		Model: fault.Model(rng.Intn(16)), Class: fault.Class(rng.Intn(5)), Domain: fault.Domain(rng.Intn(6)),
		Target: targets[rng.Intn(len(targets))],
		Bit:    uint(rng.Uint64() >> uint(rng.Intn(64))), Address: rng.Uint64() >> uint(rng.Intn(64)),
		Param: float(), Rate: float(),
		Start: sim.Time(rng.Uint64() >> uint(rng.Intn(64))), Duration: sim.Time(rng.Uint64() >> uint(rng.Intn(64))),
		Period: sim.Time(rng.Uint64() >> uint(rng.Intn(64))),
	}
}

// TestDescKeyMatchesFmt is the byte-identity contract of the fmt-free
// keys: appendDescKey and UniverseHash against the fmt forms, on every
// edge float in both float fields and on random descriptors.
func TestDescKeyMatchesFmt(t *testing.T) {
	ds := keyDescriptors()
	for _, d := range ds {
		if got, want := string(appendDescKey(nil, d)), fmtDescKey(d); got != want {
			t.Fatalf("descriptor %+v:\n got %q\nwant %q", d, got, want)
		}
	}
	scs := keyScenarios(ds)
	if got, want := UniverseHash(scs), fmtUniverseHash(scs); got != want {
		t.Fatalf("UniverseHash %s, fmt form %s", got, want)
	}
	if got, want := UniverseHash(nil), fmtUniverseHash(nil); got != want {
		t.Fatalf("empty UniverseHash %s, fmt form %s", got, want)
	}
}

// keyDescriptors is every edge float in both float fields and 5 000
// random descriptors.
func keyDescriptors() []fault.Descriptor {
	var ds []fault.Descriptor
	for _, f := range edgeFloats {
		ds = append(ds, fault.Descriptor{Name: "p", Model: fault.ValueOffset, Target: "t", Param: f},
			fault.Descriptor{Name: "r", Model: fault.Babbling, Class: fault.Intermittent, Domain: fault.Communication, Target: "t", Rate: f})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		ds = append(ds, randomDescriptor(rng))
	}
	return ds
}

// keyScenarios cuts ds into scenarios of 0..3 faults.
func keyScenarios(ds []fault.Descriptor) []fault.Scenario {
	var scs []fault.Scenario
	for i := 0; len(ds) > 0; i++ {
		n := min(i%4, len(ds))
		scs = append(scs, fault.Scenario{ID: fmt.Sprintf("sc%d", i), Faults: ds[:n]})
		ds = ds[max(n, 1):]
	}
	return scs
}

// stringContentKey is the content key Dedup folded a list by and a
// source's memo was keyed by until both went through contentIndex, kept
// as the index's oracle: two scenarios hold one content exactly when
// their keys are one string. It is ambiguous only where a target holds
// ';' and '|' — such a target can spell the seam between two faults, so
// the key equates a one-fault scenario with a two-fault one — and the
// index never equates those.
func stringContentKey(sc fault.Scenario) string {
	key := ""
	for _, d := range sc.Faults {
		key += fmtDescKey(d) + ";"
	}
	return key
}

// sameByIndex reports whether the index files a and b as one content.
func sameByIndex(a, b fault.Scenario) bool {
	x := newContentIndex(0)
	i, _ := x.put(a.Faults, contentDigest(a.Faults))
	j, ok := x.find(b.Faults, contentDigest(b.Faults))
	return ok && i == j
}

// TestContentIndexEqualities: the index files two scenarios as one
// content exactly when the string key does — names never count, -0 is
// not 0, every NaN is every other NaN, and fault order and count do.
func TestContentIndexEqualities(t *testing.T) {
	base := fault.Descriptor{Name: "a", Model: fault.ValueOffset, Target: "caps.accel0.harness", Param: 0.5, Start: sim.MS(5), Rate: 10}
	with := func(f func(*fault.Descriptor)) fault.Descriptor {
		d := base
		f(&d)
		return d
	}
	negZero, zero := math.Copysign(0, -1), 0.0
	quiet, payload := math.NaN(), math.Float64frombits(0x7ff0000000000001)
	other := with(func(d *fault.Descriptor) { d.Target, d.Name = "caps.accel1.harness", "b" })
	cases := []struct {
		name string
		a, b []fault.Descriptor
		same bool
	}{
		{"identical", []fault.Descriptor{base}, []fault.Descriptor{base}, true},
		{"names only differ", []fault.Descriptor{base}, []fault.Descriptor{with(func(d *fault.Descriptor) { d.Name = "renamed~m7+0" })}, true},
		{"-0 and 0 param", []fault.Descriptor{with(func(d *fault.Descriptor) { d.Param = negZero })}, []fault.Descriptor{with(func(d *fault.Descriptor) { d.Param = zero })}, false},
		{"-0 and 0 rate", []fault.Descriptor{with(func(d *fault.Descriptor) { d.Rate = negZero })}, []fault.Descriptor{with(func(d *fault.Descriptor) { d.Rate = zero })}, false},
		{"-0 and -0", []fault.Descriptor{with(func(d *fault.Descriptor) { d.Param = negZero })}, []fault.Descriptor{with(func(d *fault.Descriptor) { d.Param = negZero })}, true},
		{"NaN payloads param", []fault.Descriptor{with(func(d *fault.Descriptor) { d.Param = quiet })}, []fault.Descriptor{with(func(d *fault.Descriptor) { d.Param = payload })}, true},
		{"NaN payloads rate", []fault.Descriptor{with(func(d *fault.Descriptor) { d.Rate = -quiet })}, []fault.Descriptor{with(func(d *fault.Descriptor) { d.Rate = payload })}, true},
		{"NaN and a number", []fault.Descriptor{with(func(d *fault.Descriptor) { d.Param = quiet })}, []fault.Descriptor{base}, false},
		{"+Inf and -Inf", []fault.Descriptor{with(func(d *fault.Descriptor) { d.Param = math.Inf(1) })}, []fault.Descriptor{with(func(d *fault.Descriptor) { d.Param = math.Inf(-1) })}, false},
		{"start differs", []fault.Descriptor{base}, []fault.Descriptor{with(func(d *fault.Descriptor) { d.Start++ })}, false},
		{"multi-fault same order", []fault.Descriptor{base, other}, []fault.Descriptor{with(func(d *fault.Descriptor) { d.Name = "x" }), other}, true},
		{"multi-fault swapped", []fault.Descriptor{base, other}, []fault.Descriptor{other, base}, false},
		{"one fault of two", []fault.Descriptor{base}, []fault.Descriptor{base, base}, false},
		{"no faults", nil, []fault.Descriptor{}, true},
	}
	for _, c := range cases {
		a, b := fault.Scenario{ID: "a", Faults: c.a}, fault.Scenario{ID: "b", Faults: c.b}
		if key := stringContentKey(a) == stringContentKey(b); key != c.same {
			t.Fatalf("%s: the string key says same=%v, the table %v", c.name, key, c.same)
		}
		if got := sameByIndex(a, b); got != c.same {
			t.Errorf("%s: index says same=%v, want %v", c.name, got, c.same)
		}
		if got := sameByIndex(b, a); got != c.same {
			t.Errorf("%s, reversed: index says same=%v, want %v", c.name, got, c.same)
		}
	}
}

// TestContentIndexMatchesStringKey files the edge-float and random
// scenarios, each twice under other names, in one index and in a map by
// the string key: both must give every scenario the same position.
func TestContentIndexMatchesStringKey(t *testing.T) {
	scs := keyScenarios(keyDescriptors())
	for i, n := 0, len(scs); i < n; i++ {
		renamed := slices.Clone(scs[i].Faults)
		for j := range renamed {
			renamed[j].Name += "'"
		}
		scs = append(scs, fault.Scenario{ID: scs[i].ID + "'", Faults: renamed})
	}
	x, byKey := newContentIndex(0), map[string]int{}
	for _, sc := range scs {
		key := stringContentKey(sc)
		want, ok := byKey[key]
		if !ok {
			want = len(byKey)
			byKey[key] = want
		}
		if got, added := x.put(sc.Faults, contentDigest(sc.Faults)); got != want || added == ok {
			t.Fatalf("scenario %s: index position %d (new %v), string key %d (new %v)", sc.ID, got, added, want, !ok)
		}
	}
	if len(byKey) != len(x.entries) || len(byKey) >= len(scs) {
		t.Fatalf("%d contents by key, %d in the index, of %d scenarios", len(byKey), len(x.entries), len(scs))
	}
}

// TestContentIndexAllocatesNothing guards the dedup and memo path
// (Prune on a source, Dedup on a list): digesting, finding and putting a
// scenario allocates nothing in an index with room for it, and an index
// grown from empty allocates only its table's doublings.
func TestContentIndexAllocatesNothing(t *testing.T) {
	const n = 4096
	scs := make([]fault.Scenario, n)
	for i := range scs {
		scs[i] = fault.Single(fault.Descriptor{
			Name: "caps.accel0.harness/short-to-supply", Model: fault.ShortToSupply, Target: "caps.accel0.harness",
			Param: 0.5, Start: sim.Time(i) * sim.Microsecond, Duration: 250 * sim.Microsecond, Address: 0x1004, Bit: 5,
		})
	}
	x, i := newContentIndex(n), 0
	if a := testing.AllocsPerRun(n-1, func() {
		sc := scs[i%n]
		i++
		digest := contentDigest(sc.Faults)
		if _, ok := x.find(sc.Faults, digest); ok {
			t.Fatalf("%s found before it was put", sc.ID)
		}
		x.put(sc.Faults, digest)
	}); a != 0 {
		t.Errorf("find and put allocate %v times a scenario, want 0", a)
	}
	if a := testing.AllocsPerRun(1, func() {
		x := newContentIndex(0)
		for _, sc := range scs {
			x.put(sc.Faults, contentDigest(sc.Faults))
		}
	}); a > 2*12+3 {
		t.Errorf("filing %d scenarios from empty allocates %v times, more than the table's doublings", n, a)
	}
}

// FuzzContentIndex: on every pair of fuzzed scenarios the index's
// same-content verdict is the string key's, except that it never
// equates the scenarios a target holding ';' makes the key confuse.
func FuzzContentIndex(f *testing.F) {
	spell := func(shape uint8, param, rate float64, start uint64, target string) []byte {
		b := binary.LittleEndian.AppendUint64([]byte{shape}, math.Float64bits(param))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rate))
		return append(binary.LittleEndian.AppendUint64(b, start), target...)
	}
	h := "caps.accel0.harness"
	f.Add(spell(1, 0, 0, 5, h), spell(1, 0, 0, 5, h))
	f.Add(spell(7, math.Copysign(0, -1), 0, 5, "t"), spell(7, 0, 0, 5, "t"))
	f.Add(spell(7, math.NaN(), 1, 0, "t"), spell(7, math.Float64frombits(0x7ff0000000000001), 1, 0, "t"))
	f.Add(spell(0xa1, 0.5, 0, 1, "a"), spell(0xe1, 0.5, 0, 1, "a"))
	f.Add(spell(0x81, 0, 0, 1, "a|b"), spell(0x81, 0, 0, 1, "a"))
	f.Fuzz(func(t *testing.T, x, y []byte) {
		a, b := fuzzScenario(x), fuzzScenario(y)
		key := stringContentKey(a) == stringContentKey(b)
		got := sameByIndex(a, b)
		if got != sameByIndex(b, a) {
			t.Fatalf("index verdict not symmetric on %+v and %+v", a, b)
		}
		if got && !key || key && !got && !strings.ContainsRune(string(x)+string(y), ';') {
			t.Fatalf("index says same=%v, string key %v:\n%+v\n%+v", got, key, a, b)
		}
	})
}

// fuzzScenario decodes one or two faults from b: a shape byte, Param's,
// Rate's and Start's 8 bytes each, the target. The shape's low nibble is
// the model, the next two bits the class; its high bit adds a second
// fault, a copy starting later, and the bit below it puts that one
// first. The floats are raw bits, so -0 and every NaN payload occur.
func fuzzScenario(b []byte) fault.Scenario {
	var word [25]byte
	n := copy(word[:], b)
	shape, le := word[0], binary.LittleEndian
	d := fault.Descriptor{
		Name: "f", Model: fault.Model(shape & 0x0f), Class: fault.Class(shape >> 4 & 0x03), Target: string(b[n:]),
		Param: math.Float64frombits(le.Uint64(word[1:])), Rate: math.Float64frombits(le.Uint64(word[9:])),
		Start: sim.Time(le.Uint64(word[17:])),
	}
	faults := []fault.Descriptor{d}
	if shape&0x80 != 0 {
		e := d
		e.Name, e.Start = "g", d.Start+1
		faults = append(faults, e)
		if shape&0x40 != 0 {
			faults[0], faults[1] = faults[1], faults[0]
		}
	}
	return fault.Scenario{ID: "fz", Faults: faults}
}

var hashSink string

// BenchmarkUniverseHash hashes a 6 384-scenario single-fault universe,
// the size and shape of the benchmark's permanent sweep.
func BenchmarkUniverseHash(b *testing.B) {
	scs := make([]fault.Scenario, 6384)
	for i := range scs {
		m := fault.Model(i % 12)
		scs[i] = fault.Single(fault.Descriptor{
			Name:  fmt.Sprintf("caps.accel%d.harness/%s@%dus", i%2, m, i),
			Model: m, Target: fmt.Sprintf("caps.accel%d.harness", i%2), Bit: 5, Address: 0x1004,
			Param: 0.5, Start: sim.Time(i) * sim.Microsecond,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = UniverseHash(scs)
	}
}
