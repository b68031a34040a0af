package analysis

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/safety"
	"repro/internal/sim"
)

func TestClassifyPriorities(t *testing.T) {
	golden := Observation{Outputs: "\x01y"}
	cases := []struct {
		name string
		obs  Observation
		want fault.Classification
	}{
		{"goal beats everything", Observation{GoalViolated: true, DeadlineMissed: true, Detected: true, Activated: true}, fault.SafetyCritical},
		{"deadline beats sdc", Observation{DeadlineMissed: true, Outputs: "\x02y"}, fault.TimingViolation},
		{"mismatch undetected is sdc", Observation{Outputs: "\x02y"}, fault.SDC},
		{"mismatch detected is safe", Observation{Outputs: "\x02y", Detected: true}, fault.DetectedSafe},
		{"match detected is safe", Observation{Outputs: "\x01y", Detected: true}, fault.DetectedSafe},
		{"latent", Observation{Outputs: "\x01y", LatentState: true}, fault.Latent},
		{"masked", Observation{Outputs: "\x01y", Activated: true}, fault.Masked},
		{"no effect", Observation{Outputs: "\x01y"}, fault.NoEffect},
	}
	for _, c := range cases {
		if got := Classify(golden, c.obs); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

// TestClassifyComparesOutputBytes: outputs are equal exactly when their
// bytes are — a string built afresh equals golden's, and a prefix, an
// extension or one flipped byte is a mismatch.
func TestClassifyComparesOutputBytes(t *testing.T) {
	golden := Observation{Outputs: "\x00\x07\x2a\xff"}
	rebuilt := Observation{Outputs: string([]byte{0, 7, 42, 255})}
	if got := Classify(golden, rebuilt); got != fault.NoEffect {
		t.Errorf("equal bytes built afresh: got %s, want %s", got, fault.NoEffect)
	}
	for _, out := range []string{"", "\x00\x07\x2a", "\x00\x07\x2a\xff\x00", "\x01\x07\x2a\xff", "\x00\x07\x2b\xff"} {
		if got := Classify(golden, Observation{Outputs: out}); got != fault.SDC {
			t.Errorf("outputs %q against %q: got %s, want %s", out, golden.Outputs, got, fault.SDC)
		}
	}
}

func TestDescribe(t *testing.T) {
	if got := Describe(Observation{GoalViolated: true, GoalDetail: "boom"}); !strings.Contains(got, "boom") {
		t.Errorf("Describe = %q", got)
	}
	if got := Describe(Observation{Detected: true, DetectedBy: []string{"ecc", "wd"}}); !strings.Contains(got, "ecc,wd") {
		t.Errorf("Describe = %q", got)
	}
	if Describe(Observation{}) != "" {
		t.Error("empty describe")
	}
}

// TestDescribeInternMatchesJoin: for every sequence of mechanisms a CAPS
// run (each ordering of any subset of its four: detect appends them in
// firing order) or an ECU run (any subset of its three, in Observe's
// order) reports, the interned detail is the joined rendering, a second
// call with another list of the same names returns the same string and
// allocates nothing, and the nil list renders as the empty one.
func TestDescribeInternMatchesJoin(t *testing.T) {
	var seqs [][]string
	var orderings func(prefix, rest []string)
	orderings = func(prefix, rest []string) {
		seqs = append(seqs, slices.Clone(prefix))
		for i, m := range rest {
			orderings(append(slices.Clone(prefix), m), slices.Delete(slices.Clone(rest), i, i+1))
		}
	}
	orderings(nil, []string{"calib-crc", "plausibility", "threshold-redundancy", "frame-timeout"})
	ecu := []string{"lockstep", "watchdog", "ecc"}
	for set := 1; set < 1<<len(ecu); set++ {
		var seq []string
		for i, m := range ecu {
			if set&(1<<i) != 0 {
				seq = append(seq, m)
			}
		}
		seqs = append(seqs, seq)
	}
	if len(seqs) != 65+7 {
		t.Fatalf("%d sequences, want 72", len(seqs))
	}
	for _, seq := range seqs {
		want := "detected by " + strings.Join(seq, ",")
		first := Describe(Observation{Detected: true, DetectedBy: seq})
		again := Observation{Detected: true, DetectedBy: slices.Clone(seq)}
		var second string
		allocs := testing.AllocsPerRun(10, func() { second = Describe(again) })
		if first != want || second != want {
			t.Errorf("%q: detail %q, then %q, want %q", seq, first, second, want)
		}
		if unsafe.StringData(first) != unsafe.StringData(second) {
			t.Errorf("%q: a second call rendered the detail again", seq)
		}
		if allocs != 0 {
			t.Errorf("%q: a second call allocates %v objects", seq, allocs)
		}
	}
	if got := Describe(Observation{Detected: true}); got != "detected by " {
		t.Errorf("nil list: %q", got)
	}
}

// TestDescribeInternUnderContention: workers describing overlapping
// sequences at once, each first seen by several of them, all get the
// joined rendering (run under the race detector in CI).
func TestDescribeInternUnderContention(t *testing.T) {
	const workers, seqs = 4, 64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range seqs {
				seq := []string{"contended", strconv.Itoa((i + w) % seqs)}
				if got, want := Describe(Observation{Detected: true, DetectedBy: seq}), "detected by "+strings.Join(seq, ","); got != want {
					t.Errorf("worker %d: %q, want %q", w, got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestDescribeInternIsBounded: once every slot of the table holds a
// detail, Describe renders any other sequence afresh on every call, and
// still as the joined rendering. The table is put back as it was.
func TestDescribeInternIsBounded(t *testing.T) {
	var saved [detailSlots]*detail
	for i := range details {
		saved[i] = details[i].Swap(nil)
	}
	t.Cleanup(func() {
		for i := range details {
			details[i].Store(saved[i])
		}
	})
	taken := func() (n int) {
		for i := range details {
			if details[i].Load() != nil {
				n++
			}
		}
		return n
	}
	for i := 0; taken() < detailSlots; i++ {
		if i == 100*detailSlots {
			t.Fatalf("%d distinct sequences fill %d of %d slots", i, taken(), detailSlots)
		}
		Describe(Observation{Detected: true, DetectedBy: []string{"m", strconv.Itoa(i)}})
	}
	ob := Observation{Detected: true, DetectedBy: []string{"m", "-1"}}
	first, second := Describe(ob), Describe(ob)
	if first != "detected by m,-1" || second != first {
		t.Errorf("a detail past the bound: %q, then %q", first, second)
	}
	if unsafe.StringData(first) == unsafe.StringData(second) {
		t.Error("a detail past the bound was interned")
	}
}

func TestTrace(t *testing.T) {
	var tr Trace
	tr.Record(sim.NS(10), "sensor", "offset")
	tr.Record(sim.NS(20), "fusion", "wrong severity")
	tr.Record(sim.NS(30), "fusion", "frame sent")
	tr.Record(sim.NS(40), "airbag", "fired")
	if tr.Len() != 4 {
		t.Errorf("len = %d", tr.Len())
	}
	sites := tr.SitesVisited()
	if len(sites) != 3 || sites[0] != "sensor" || sites[2] != "airbag" {
		t.Errorf("sites = %v", sites)
	}
	s := tr.String()
	if !strings.Contains(s, "sensor@10 ns(offset) -> fusion@20 ns") {
		t.Errorf("trace string = %q", s)
	}
}

func outcome(class fault.Classification, faults ...string) fault.Outcome {
	sc := fault.Scenario{ID: strings.Join(faults, "+")}
	for _, f := range faults {
		sc.Faults = append(sc.Faults, fault.Descriptor{Name: f, Target: f})
	}
	return fault.Outcome{Scenario: sc, Class: class}
}

func TestSynthesizeFaultTree(t *testing.T) {
	outcomes := []fault.Outcome{
		outcome(fault.SafetyCritical, "a"),
		outcome(fault.Masked, "b"),
		outcome(fault.SafetyCritical, "b", "c"),
		outcome(fault.SafetyCritical, "a", "b"), // absorbed by {a}
		outcome(fault.SDC, "d"),
	}
	isFail := func(c fault.Classification) bool { return c == fault.SafetyCritical }
	probs := map[string]float64{"a": 0.1, "b": 0.2, "c": 0.3}
	tree := SynthesizeFaultTree("G1", outcomes, isFail, probs, 0.01)
	mcs := tree.MinimalCutSets()
	if len(mcs) != 2 {
		t.Fatalf("mcs = %v", mcs)
	}
	p, err := tree.TopEventProbability()
	if err != nil {
		t.Fatal(err)
	}
	want := 0.1 + 0.2*0.3 - 0.1*0.2*0.3
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("P = %v, want %v", p, want)
	}
}

func TestSynthesizeNoFailures(t *testing.T) {
	tree := SynthesizeFaultTree("G1", []fault.Outcome{outcome(fault.Masked, "a")},
		func(c fault.Classification) bool { return c.IsFailure() }, nil, 0.1)
	p, err := tree.TopEventProbability()
	if err != nil || p != 0 {
		t.Errorf("no-failure tree P = %v, %v", p, err)
	}
}

func TestSynthesizeMatchesAnalytic(t *testing.T) {
	// Analytic model: top = s1 OR (s2 AND s3). Simulate its truth
	// table as campaign outcomes and check the synthesized tree agrees.
	analytic := safety.Or("top",
		safety.BasicEvent("s1", 0.05),
		safety.And("g", safety.BasicEvent("s2", 0.1), safety.BasicEvent("s3", 0.2)))
	var outcomes []fault.Outcome
	for mask := 1; mask < 8; mask++ {
		var faults []string
		for i, name := range []string{"s1", "s2", "s3"} {
			if mask>>uint(i)&1 == 1 {
				faults = append(faults, name)
			}
		}
		has := func(n string) bool {
			for _, f := range faults {
				if f == n {
					return true
				}
			}
			return false
		}
		class := fault.Masked
		if has("s1") || (has("s2") && has("s3")) {
			class = fault.SafetyCritical
		}
		outcomes = append(outcomes, outcome(class, faults...))
	}
	probs := map[string]float64{"s1": 0.05, "s2": 0.1, "s3": 0.2}
	synth := SynthesizeFaultTree("top", outcomes,
		func(c fault.Classification) bool { return c == fault.SafetyCritical }, probs, 0)
	pa, err := analytic.TopEventProbability()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := synth.TopEventProbability()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pa-ps) > 1e-12 {
		t.Errorf("synthesized P = %v, analytic P = %v", ps, pa)
	}
	if len(synth.MinimalCutSets()) != len(analytic.MinimalCutSets()) {
		t.Errorf("cut sets differ: %v vs %v", synth.MinimalCutSets(), analytic.MinimalCutSets())
	}
}

func TestEventKeyStripsInstanceSuffix(t *testing.T) {
	if EventKey(fault.Descriptor{Name: "site/model#1"}) != "site/model" {
		t.Error("# suffix not stripped")
	}
	if EventKey(fault.Descriptor{Name: "site/model+0"}) != "site/model" {
		t.Error("+ suffix not stripped")
	}
	if EventKey(fault.Descriptor{Name: "plain"}) != "plain" {
		t.Error("plain name mangled")
	}
}
