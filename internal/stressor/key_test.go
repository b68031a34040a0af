package stressor

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
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
// keys: appendDescKey, scenarioContentKey and UniverseHash against the
// fmt forms, on every edge float in both float fields and on random
// descriptors.
func TestDescKeyMatchesFmt(t *testing.T) {
	var ds []fault.Descriptor
	for _, f := range edgeFloats {
		ds = append(ds, fault.Descriptor{Name: "p", Model: fault.ValueOffset, Target: "t", Param: f},
			fault.Descriptor{Name: "r", Model: fault.Babbling, Class: fault.Intermittent, Domain: fault.Communication, Target: "t", Rate: f})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		ds = append(ds, randomDescriptor(rng))
	}
	for _, d := range ds {
		if got, want := string(appendDescKey(nil, d)), fmtDescKey(d); got != want {
			t.Fatalf("descriptor %+v:\n got %q\nwant %q", d, got, want)
		}
	}
	// Scenarios of 0..3 faults: the content key is the fmt keys joined,
	// and the hash of the lot is the fmt hash.
	var scs []fault.Scenario
	for i := 0; len(ds) > 0; i++ {
		n := min(i%4, len(ds))
		sc := fault.Scenario{ID: fmt.Sprintf("sc%d", i), Faults: ds[:n]}
		ds = ds[max(n, 1):]
		want := ""
		for _, d := range sc.Faults {
			want += fmtDescKey(d) + ";"
		}
		if got := scenarioContentKey(sc); got != want {
			t.Fatalf("scenario %s: content key %q, want %q", sc.ID, got, want)
		}
		scs = append(scs, sc)
	}
	if got, want := UniverseHash(scs), fmtUniverseHash(scs); got != want {
		t.Fatalf("UniverseHash %s, fmt form %s", got, want)
	}
	if got, want := UniverseHash(nil), fmtUniverseHash(nil); got != want {
		t.Fatalf("empty UniverseHash %s, fmt form %s", got, want)
	}
}

// TestContentKeyAllocatesOnlyTheKey guards the dedup and memo path
// (Prune on a source, Dedup on a list): building a single-fault key
// costs the string it returns and nothing else.
func TestContentKeyAllocatesOnlyTheKey(t *testing.T) {
	sc := fault.Single(fault.Descriptor{
		Name: "caps.accel0.harness/short-to-supply", Model: fault.ShortToSupply, Target: "caps.accel0.harness",
		Param: 0.5, Start: 75 * sim.Millisecond, Duration: 250 * sim.Microsecond, Address: 0x1004, Bit: 5,
	})
	var key string
	if n := testing.AllocsPerRun(100, func() { key = scenarioContentKey(sc) }); n != 1 {
		t.Errorf("scenarioContentKey allocates %v times, want 1", n)
	}
	if len(key) > len(keyScratch{}) {
		t.Fatalf("a representative key is %d bytes, scratch %d", len(key), len(keyScratch{}))
	}
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
