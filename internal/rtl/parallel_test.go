package rtl

import (
	"testing"
	"testing/quick"
)

func TestParallelMatchesSerialEvaluation(t *testing.T) {
	alu := NewALU(8)
	pe, err := NewParallelEvaluator(alu.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewEvaluator(alu.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	// 64 patterns at once.
	patterns := map[Net]uint64{}
	type vec struct{ a, b, op uint64 }
	var vecs []vec
	for i := 0; i < 64; i++ {
		vecs = append(vecs, vec{uint64(i*7+1) & 0xff, uint64(i*13+5) & 0xff, uint64(i) % 8})
	}
	setBit := func(n Net, pat int, bit bool) {
		if bit {
			patterns[n] |= 1 << uint(pat)
		}
	}
	for pi, v := range vecs {
		for b, n := range alu.A {
			setBit(n, pi, v.a>>uint(b)&1 == 1)
		}
		for b, n := range alu.B {
			setBit(n, pi, v.b>>uint(b)&1 == 1)
		}
		for b, n := range alu.Op {
			setBit(n, pi, v.op>>uint(b)&1 == 1)
		}
	}
	for n, w := range patterns {
		pe.SetInputPatterns(n, w)
	}
	pe.Eval()
	for pi, v := range vecs {
		se.SetBus(alu.A, v.a)
		se.SetBus(alu.B, v.b)
		se.SetBus(alu.Op, v.op)
		se.Eval()
		for b, n := range alu.Y {
			sBit, _ := se.Value(n).Bool()
			pBit := pe.val[n]>>uint(pi)&1 == 1
			if sBit != pBit {
				t.Fatalf("pattern %d output bit %d: serial %v, parallel %v", pi, b, sBit, pBit)
			}
		}
	}
}

// gradeFixture builds matched pattern sets for both engines.
func gradeFixture(t testing.TB) (*ALU, map[Net]uint64, []map[Net]Logic, []Net) {
	t.Helper()
	alu := NewALU(4)
	parallel := map[Net]uint64{}
	var serial []map[Net]Logic
	for pi := 0; pi < 64; pi++ {
		a := uint64(pi*5+3) & 0xf
		b := uint64(pi*11+1) & 0xf
		op := uint64(pi) % 8
		pat := map[Net]Logic{}
		fill := func(bus []Net, v uint64) {
			for bit, n := range bus {
				on := v>>uint(bit)&1 == 1
				pat[n] = FromBool(on)
				if on {
					parallel[n] |= 1 << uint(pi)
				}
			}
		}
		fill(alu.A, a)
		fill(alu.B, b)
		fill(alu.Op, op)
		serial = append(serial, pat)
	}
	var nets []Net
	for n := 0; n < alu.Circuit.NumNets(); n += 5 {
		nets = append(nets, Net(n))
	}
	return alu, parallel, serial, nets
}

func TestFaultGradeMatchesSerial(t *testing.T) {
	alu, parallel, serial, nets := gradeFixture(t)
	pe, err := NewParallelEvaluator(alu.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	pRes := pe.FaultGrade(nets, parallel)
	sRes, err := SerialFaultGrade(alu.Circuit, nets, serial)
	if err != nil {
		t.Fatal(err)
	}
	if pRes.Faults != sRes.Faults {
		t.Fatalf("fault counts differ: %d vs %d", pRes.Faults, sRes.Faults)
	}
	if pRes.Detected != sRes.Detected {
		t.Errorf("detection differs: parallel %d, serial %d", pRes.Detected, sRes.Detected)
	}
	if pRes.Coverage() <= 0 || pRes.Coverage() > 1 {
		t.Errorf("coverage = %v", pRes.Coverage())
	}
	// The acceleration claim: far fewer gate evaluations.
	if pRes.GateEvals*10 > sRes.GateEvals {
		t.Errorf("parallel evals %d not ≫ faster than serial %d", pRes.GateEvals, sRes.GateEvals)
	}
	t.Logf("fault grading: %d faults, coverage %.0f%%, gate evals serial %d vs parallel %d (%.0fx)",
		pRes.Faults, pRes.Coverage()*100, sRes.GateEvals, pRes.GateEvals,
		float64(sRes.GateEvals)/float64(pRes.GateEvals))
}

// Property: for random single patterns, the parallel evaluator's
// pattern-0 lane always agrees with the four-state evaluator.
func TestPropertyParallelLaneZero(t *testing.T) {
	alu := NewALU(4)
	pe, err := NewParallelEvaluator(alu.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewEvaluator(alu.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, op uint8) bool {
		av, bv, opv := uint64(a&0xf), uint64(b&0xf), uint64(op%8)
		for bit, n := range alu.A {
			pe.SetInputPatterns(n, av>>uint(bit)&1)
		}
		for bit, n := range alu.B {
			pe.SetInputPatterns(n, bv>>uint(bit)&1)
		}
		for bit, n := range alu.Op {
			pe.SetInputPatterns(n, opv>>uint(bit)&1)
		}
		pe.Eval()
		se.SetBus(alu.A, av)
		se.SetBus(alu.B, bv)
		se.SetBus(alu.Op, opv)
		se.Eval()
		for _, n := range alu.Y {
			sBit, _ := se.Value(n).Bool()
			if (pe.val[n]&1 == 1) != sBit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSerialFaultGrade(b *testing.B) {
	alu, _, serial, nets := gradeFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SerialFaultGrade(alu.Circuit, nets, serial); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelFaultGrade(b *testing.B) {
	alu, parallel, _, nets := gradeFixture(b)
	pe, err := NewParallelEvaluator(alu.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pe.FaultGrade(nets, parallel)
	}
}
