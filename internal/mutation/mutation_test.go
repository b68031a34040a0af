package mutation

import (
	"repro/internal/par"
	"testing"

	"repro/internal/mdl"
)

const modelSrc = `
func clamp(x, lo, hi) {
  if x < lo {
    return lo
  }
  if x > hi {
    return hi
  }
  return x
}

func controller(sensor, threshold) {
  let cmd = 0
  if sensor > threshold {
    cmd = sensor - threshold
  }
  return clamp(cmd, 0, 100)
}
`

func prog(t *testing.T) *mdl.Program {
	t.Helper()
	p, err := mdl.Parse(modelSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGenerateOperatorClasses(t *testing.T) {
	mutants := Generate(prog(t))
	byClass := map[string]int{}
	for _, m := range mutants {
		byClass[m.Operator]++
	}
	for _, class := range []string{"AOR", "ROR", "CRP", "NC", "SDL"} {
		if byClass[class] == 0 {
			t.Errorf("no %s mutants generated (have %v)", class, byClass)
		}
	}
	// IDs are dense.
	for i, m := range mutants {
		if m.ID != i {
			t.Errorf("mutant ID %d at index %d", m.ID, i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(prog(t))
	b := Generate(prog(t))
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i].Description != b[i].Description {
			t.Fatalf("mutant %d differs: %s vs %s", i, a[i].Description, b[i].Description)
		}
	}
}

// strongSuite exercises boundaries and both branches everywhere.
func strongSuite() []Test {
	var tests []Test
	for _, v := range []int64{0, 1, 49, 50, 51, 99, 100, 149, 150, 151, 200, 300} {
		tests = append(tests, Test{Fn: "controller", Args: []int64{v, 50}})
	}
	for _, args := range [][]int64{{-5, 0, 100}, {0, 0, 100}, {50, 0, 100}, {100, 0, 100}, {105, 0, 100}} {
		tests = append(tests, Test{Fn: "clamp", Args: args})
	}
	return tests
}

// weakSuite touches every statement once but checks no boundaries.
func weakSuite() []Test {
	return []Test{
		{Fn: "controller", Args: []int64{500, 50}}, // hits both if-branches & clamp hi
		{Fn: "controller", Args: []int64{10, 50}},  // sensor below threshold
		{Fn: "clamp", Args: []int64{-10, 0, 100}},  // lo branch
	}
}

func TestQualifyStrongVsWeak(t *testing.T) {
	p := prog(t)
	strong, err := Qualify(p, strongSuite())
	if err != nil {
		t.Fatal(err)
	}
	weak, err := Qualify(p, weakSuite())
	if err != nil {
		t.Fatal(err)
	}
	if strong.Total != weak.Total || strong.Total == 0 {
		t.Fatalf("totals: strong %d, weak %d", strong.Total, weak.Total)
	}
	if strong.Score <= weak.Score {
		t.Errorf("strong score %.2f <= weak score %.2f — mutation analysis not discriminating",
			strong.Score, weak.Score)
	}
	// The weak suite still has near-full statement coverage: this is
	// the paper's point (coverage saturates, mutation score does not).
	if weak.StatementCoverage < 0.9 {
		t.Errorf("weak suite statement coverage = %.2f, want >= 0.9", weak.StatementCoverage)
	}
	// The model has exactly 6 equivalent mutants (e.g. "x < lo" ->
	// "x <= lo" inside clamp is behaviour-preserving), so the best
	// achievable score is (Total-6)/Total = 0.70. A strong suite must
	// reach it.
	maxAchievable := float64(strong.Total-6) / float64(strong.Total)
	if strong.Score < maxAchievable {
		t.Errorf("strong suite mutation score = %.2f, want %.2f (all non-equivalent mutants killed)",
			strong.Score, maxAchievable)
	}
	t.Logf("strong: score=%.2f cov=%.2f; weak: score=%.2f cov=%.2f",
		strong.Score, strong.StatementCoverage, weak.Score, weak.StatementCoverage)
}

func TestSurvivorsListed(t *testing.T) {
	p := prog(t)
	rep, err := Qualify(p, weakSuite())
	if err != nil {
		t.Fatal(err)
	}
	survivors := rep.Survivors()
	if len(survivors) != rep.Total-rep.Killed {
		t.Errorf("survivors %d, want %d", len(survivors), rep.Total-rep.Killed)
	}
	if len(survivors) == 0 {
		t.Error("weak suite should leave survivors")
	}
}

func TestKilledByErrorVerdict(t *testing.T) {
	// A model where a CRP mutant creates division by zero.
	p, err := mdl.Parse(`func f(x) { return x / 2 }`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Qualify(p, []Test{{Fn: "f", Args: []int64{10}}})
	if err != nil {
		t.Fatal(err)
	}
	hasErrKill := false
	for _, r := range rep.Results {
		if r.Verdict == KilledByError {
			hasErrKill = true
			if r.KillingTest != 0 {
				t.Errorf("killing test = %d", r.KillingTest)
			}
		}
	}
	if !hasErrKill {
		t.Error("no killed-by-error mutant (const 2 -> 0 should divide by zero)")
	}
}

func TestKilledByTimeout(t *testing.T) {
	// Negating the while condition makes the loop infinite; the step
	// budget must kill it.
	p, err := mdl.Parse(`
func f(n) {
  let i = 0
  let acc = 0
  while i < n {
    acc = acc + i
    i = i + 1
  }
  return acc
}`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Qualify(p, []Test{{Fn: "f", Args: []int64{5}}, {Fn: "f", Args: []int64{0}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Score < 0.5 {
		t.Errorf("score = %.2f; loop mutants should mostly die", rep.Score)
	}
}

func TestQualifyReparseAgrees(t *testing.T) {
	p := prog(t)
	a, err := Qualify(p, strongSuite())
	if err != nil {
		t.Fatal(err)
	}
	b, err := QualifyReparse(p, strongSuite())
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != b.Total || a.Killed != b.Killed {
		t.Errorf("schemata (%d/%d) and reparse (%d/%d) disagree",
			a.Killed, a.Total, b.Killed, b.Total)
	}
	for i := range a.Results {
		if a.Results[i].Verdict != b.Results[i].Verdict {
			t.Errorf("mutant %d: %s vs %s", i, a.Results[i].Verdict, b.Results[i].Verdict)
		}
	}
}

func TestQualifyRejectsEmptySuite(t *testing.T) {
	if _, err := Qualify(prog(t), nil); err == nil {
		t.Error("empty suite accepted")
	}
}

func TestQualifyRejectsBrokenGolden(t *testing.T) {
	p, err := mdl.Parse(`func f(x) { return 1 / x }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Qualify(p, []Test{{Fn: "f", Args: []int64{0}}}); err == nil {
		t.Error("golden-run failure not reported")
	}
}

func TestVerdictStrings(t *testing.T) {
	if Survived.String() != "survived" || KilledByValue.String() != "killed-value" ||
		KilledByError.String() != "killed-error" {
		t.Error("verdict strings")
	}
}

func BenchmarkQualifySchemata(b *testing.B) {
	p, err := mdl.Parse(modelSrc)
	if err != nil {
		b.Fatal(err)
	}
	suite := strongSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Qualify(p, suite); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQualifyReparse(b *testing.B) {
	p, err := mdl.Parse(modelSrc)
	if err != nil {
		b.Fatal(err)
	}
	suite := strongSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := QualifyReparse(p, suite); err != nil {
			b.Fatal(err)
		}
	}
}

// TestQualifyWithWorkersDeterministic is the parallel-qualification
// contract: any worker count reassembles the exact sequential Report
// (result order, per-mutant verdicts, kill count, score), in both
// schemata and reparse modes.
func TestQualifyWithWorkersDeterministic(t *testing.T) {
	p := prog(t)
	suite := strongSuite()
	for _, reparse := range []bool{false, true} {
		baseline, err := QualifyWith(p, suite, Options{Reparse: reparse})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 4, 8, par.Auto} {
			got, err := QualifyWith(p, suite, Options{Reparse: reparse, Workers: workers})
			if err != nil {
				t.Fatalf("reparse=%v workers=%d: %v", reparse, workers, err)
			}
			if got.Total != baseline.Total || got.Killed != baseline.Killed || got.Score != baseline.Score {
				t.Fatalf("reparse=%v workers=%d: report %d/%d (%.2f) diverged from %d/%d (%.2f)",
					reparse, workers, got.Killed, got.Total, got.Score,
					baseline.Killed, baseline.Total, baseline.Score)
			}
			for i := range baseline.Results {
				if got.Results[i].Mutant.ID != baseline.Results[i].Mutant.ID ||
					got.Results[i].Verdict != baseline.Results[i].Verdict ||
					got.Results[i].KillingTest != baseline.Results[i].KillingTest {
					t.Fatalf("reparse=%v workers=%d: result %d = %+v, want %+v",
						reparse, workers, i, got.Results[i], baseline.Results[i])
				}
			}
		}
	}
}
