package safety

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestFTAValidate(t *testing.T) {
	good := Or("top", BasicEvent("a", 0.1), And("g", BasicEvent("b", 0.2), BasicEvent("c", 0.3)))
	if err := good.Validate(); err != nil {
		t.Errorf("good tree rejected: %v", err)
	}
	bad := []*Node{
		BasicEvent("a", -0.1),
		BasicEvent("a", 1.5),
		Or("empty"),
	}
	for i, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("bad tree %d accepted", i)
		}
	}
}

func TestMinimalCutSetsSimple(t *testing.T) {
	// top = a OR (b AND c)
	tree := Or("top", BasicEvent("a", 0.1), And("g", BasicEvent("b", 0.2), BasicEvent("c", 0.3)))
	mcs := tree.MinimalCutSets()
	if len(mcs) != 2 {
		t.Fatalf("mcs = %v", mcs)
	}
	if mcs[0].key() != "a" {
		t.Errorf("mcs[0] = %v", mcs[0])
	}
	if len(mcs[1]) != 2 || mcs[1][0] != "b" || mcs[1][1] != "c" {
		t.Errorf("mcs[1] = %v", mcs[1])
	}
}

func TestMinimalCutSetsAbsorption(t *testing.T) {
	// top = a OR (a AND b): the {a,b} set is absorbed by {a}.
	a := BasicEvent("a", 0.1)
	tree := Or("top", a, And("g", BasicEvent("a", 0.1), BasicEvent("b", 0.2)))
	mcs := tree.MinimalCutSets()
	if len(mcs) != 1 || mcs[0].key() != "a" {
		t.Errorf("absorption failed: %v", mcs)
	}
}

func TestTopEventProbabilityExact(t *testing.T) {
	// P(a or (b and c)) with independent events:
	// = Pa + Pb*Pc - Pa*Pb*Pc = 0.1 + 0.06 - 0.006 = 0.154
	tree := Or("top", BasicEvent("a", 0.1), And("g", BasicEvent("b", 0.2), BasicEvent("c", 0.3)))
	p, err := tree.TopEventProbability()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.154) > 1e-12 {
		t.Errorf("P(top) = %v, want 0.154", p)
	}
}

func TestTopEventProbabilitySharedEvent(t *testing.T) {
	// top = (a AND b) OR (a AND c): P = Pa*Pb + Pa*Pc - Pa*Pb*Pc.
	tree := Or("top",
		And("g1", BasicEvent("a", 0.5), BasicEvent("b", 0.4)),
		And("g2", BasicEvent("a", 0.5), BasicEvent("c", 0.2)))
	p, err := tree.TopEventProbability()
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*0.4 + 0.5*0.2 - 0.5*0.4*0.2
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("P(top) = %v, want %v", p, want)
	}
}

func TestConflictingProbabilitiesRejected(t *testing.T) {
	tree := Or("top", BasicEvent("a", 0.1), BasicEvent("a", 0.2))
	if _, err := tree.TopEventProbability(); err == nil {
		t.Error("conflicting basic-event probabilities accepted")
	}
}

func TestImportanceRanking(t *testing.T) {
	// Event "a" is in the singleton cut set; it must dominate.
	tree := Or("top", BasicEvent("a", 0.01), And("g", BasicEvent("b", 0.01), BasicEvent("c", 0.01)))
	imp, err := tree.Importance()
	if err != nil {
		t.Fatal(err)
	}
	if imp[0].Event != "a" || imp[0].FussellVesely < 0.9 {
		t.Errorf("importance = %+v", imp)
	}
	if len(imp) != 3 {
		t.Errorf("entries = %d", len(imp))
	}
}

func TestTreeString(t *testing.T) {
	tree := Or("top", BasicEvent("a", 0.1), And("v", BasicEvent("b", 0.1), BasicEvent("c", 0.1)))
	s := tree.String()
	for _, want := range []string{"top [OR]", "a p=0.1", "v [AND]", "    c p=0.1"} {
		if !strings.Contains(s, want) {
			t.Errorf("tree string missing %q:\n%s", want, s)
		}
	}
}

func TestFMEDAPerfectCoverage(t *testing.T) {
	res, err := EvaluateFMEDA([]FailureMode{
		{Component: "cpu", Mode: "seu", RateFIT: 100, SafeFraction: 0.5, DiagnosticCoverage: 1, LatentCoverage: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DangerousUndetectedFIT != 0 || res.SPFM != 1 || res.LFM != 1 {
		t.Errorf("res = %+v", res)
	}
	if res.ASIL() != ASILD {
		t.Errorf("ASIL = %v, want D", res.ASIL())
	}
}

func TestFMEDANoCoverage(t *testing.T) {
	res, err := EvaluateFMEDA([]FailureMode{
		{Component: "cpu", Mode: "seu", RateFIT: 1000, SafeFraction: 0, DiagnosticCoverage: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SPFM != 0 {
		t.Errorf("SPFM = %v, want 0", res.SPFM)
	}
	// 1000 FIT undetected = 1e-6/h: misses even ASIL-A.
	if res.ASIL() != QM {
		t.Errorf("ASIL = %v, want QM", res.ASIL())
	}
}

func TestFMEDAMetricsArithmetic(t *testing.T) {
	res, err := EvaluateFMEDA([]FailureMode{
		{Component: "a", Mode: "m1", RateFIT: 100, SafeFraction: 0.2, DiagnosticCoverage: 0.9, LatentCoverage: 0.5},
		{Component: "b", Mode: "m2", RateFIT: 50, SafeFraction: 0.0, DiagnosticCoverage: 0.99, LatentCoverage: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// a: safe 20, dangerous 80, DD 72, DU 8, latent 36.
	// b: dangerous 50, DD 49.5, DU 0.5, latent 0.
	if math.Abs(res.TotalFIT-150) > 1e-9 ||
		math.Abs(res.DangerousUndetectedFIT-8.5) > 1e-9 ||
		math.Abs(res.LatentFIT-36) > 1e-9 {
		t.Errorf("res = %+v", res)
	}
	wantSPFM := 1 - 8.5/150
	if math.Abs(res.SPFM-wantSPFM) > 1e-12 {
		t.Errorf("SPFM = %v, want %v", res.SPFM, wantSPFM)
	}
	wantLFM := 1 - 36/(150-8.5)
	if math.Abs(res.LFM-wantLFM) > 1e-12 {
		t.Errorf("LFM = %v, want %v", res.LFM, wantLFM)
	}
	if math.Abs(res.PMHF-8.5e-9) > 1e-15 {
		t.Errorf("PMHF = %v", res.PMHF)
	}
	if !strings.Contains(res.String(), "SPFM") {
		t.Error("String missing metrics")
	}
}

func TestFMEDAValidation(t *testing.T) {
	bad := []FailureMode{
		{Component: "x", Mode: "m", RateFIT: -1},
		{Component: "x", Mode: "m", RateFIT: 1, SafeFraction: 1.2},
		{Component: "x", Mode: "m", RateFIT: 1, DiagnosticCoverage: -0.1},
		{Component: "x", Mode: "m", RateFIT: 1, LatentCoverage: 2},
	}
	for i, m := range bad {
		if _, err := EvaluateFMEDA([]FailureMode{m}); err == nil {
			t.Errorf("bad mode %d accepted", i)
		}
	}
}

func TestASILStrings(t *testing.T) {
	if QM.String() != "QM" || ASILD.String() != "ASIL-D" {
		t.Error("ASIL strings")
	}
	if GateAnd.String() != "AND" || GateOr.String() != "OR" {
		t.Error("gate strings")
	}
}

// Property: the top-event probability always lies in [0,1] and never
// falls below the largest single-cut-set probability.
func TestPropertyTopEventBounds(t *testing.T) {
	f := func(pa, pb, pc uint8) bool {
		a := float64(pa%100) / 100
		b := float64(pb%100) / 100
		c := float64(pc%100) / 100
		tree := Or("top", BasicEvent("a", a), And("g", BasicEvent("b", b), BasicEvent("c", c)))
		p, err := tree.TopEventProbability()
		if err != nil {
			return false
		}
		lower := math.Max(a, b*c)
		return p >= lower-1e-12 && p <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: FMEDA rates decompose exactly: total = safe + DD + DU.
func TestPropertyFMEDADecomposition(t *testing.T) {
	f := func(rate uint16, sf, dc uint8) bool {
		m := FailureMode{
			Component: "c", Mode: "m",
			RateFIT:            float64(rate),
			SafeFraction:       float64(sf%101) / 100,
			DiagnosticCoverage: float64(dc%101) / 100,
		}
		res, err := EvaluateFMEDA([]FailureMode{m})
		if err != nil {
			return false
		}
		sum := res.SafeFIT + res.DangerousDetectedFIT + res.DangerousUndetectedFIT
		return math.Abs(sum-res.TotalFIT) < 1e-9 &&
			res.SPFM >= -1e-12 && res.SPFM <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the exact inclusion-exclusion top-event probability agrees
// with a deterministic enumeration over the full truth table of basic
// events (exhaustive check on small trees).
func TestPropertyTopEventMatchesEnumeration(t *testing.T) {
	f := func(pa, pb, pc, pd uint8) bool {
		probs := []float64{
			float64(pa%100) / 100, float64(pb%100) / 100,
			float64(pc%100) / 100, float64(pd%100) / 100,
		}
		tree := Or("top",
			And("g1", BasicEvent("a", probs[0]), BasicEvent("b", probs[1])),
			And("g2", BasicEvent("b", probs[1]), BasicEvent("c", probs[2])),
			BasicEvent("d", probs[3]))
		got, err := tree.TopEventProbability()
		if err != nil {
			return false
		}
		// Enumerate all 16 outcomes of (a,b,c,d).
		names := []string{"a", "b", "c", "d"}
		want := 0.0
		for mask := 0; mask < 16; mask++ {
			p := 1.0
			on := map[string]bool{}
			for i, n := range names {
				if mask>>uint(i)&1 == 1 {
					on[n] = true
					p *= probs[i]
				} else {
					p *= 1 - probs[i]
				}
			}
			if (on["a"] && on["b"]) || (on["b"] && on["c"]) || on["d"] {
				want += p
			}
		}
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
