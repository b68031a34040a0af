package rtl

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLogicTables(t *testing.T) {
	if L0.Not() != L1 || L1.Not() != L0 || LX.Not() != LX || LZ.Not() != LX {
		t.Error("Not table wrong")
	}
	if L0.And(LX) != L0 || L1.And(LX) != LX || L1.And(L1) != L1 {
		t.Error("And table wrong")
	}
	if L1.Or(LX) != L1 || L0.Or(LX) != LX || L0.Or(L0) != L0 {
		t.Error("Or table wrong")
	}
	if L1.Xor(L0) != L1 || L1.Xor(L1) != L0 || L1.Xor(LX) != LX {
		t.Error("Xor table wrong")
	}
	if Mux(L0, L1, L0) != L1 || Mux(L1, L1, L0) != L0 {
		t.Error("Mux select wrong")
	}
	if Mux(LX, L1, L1) != L1 || Mux(LX, L1, L0) != LX {
		t.Error("Mux x-select wrong")
	}
	if L0.String() != "0" || L1.String() != "1" || LX.String() != "x" || LZ.String() != "z" {
		t.Error("strings wrong")
	}
	if v, ok := L1.Bool(); !v || !ok {
		t.Error("Bool(L1)")
	}
	if _, ok := LX.Bool(); ok {
		t.Error("Bool(LX) ok")
	}
	if FromBool(true) != L1 || FromBool(false) != L0 {
		t.Error("FromBool")
	}
}

func mustEval(t *testing.T, c *Circuit) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBasicGates(t *testing.T) {
	c := NewCircuit("gates")
	a := c.Input("a")
	b := c.Input("b")
	and, or, nand, nor := c.And(a, b), c.Or(a, b), c.addGate(GateNand, a, b), c.Nor(a, b)
	xor, xnor, not, buf := c.Xor(a, b), c.addGate(GateXnor, a, b), c.Not(a), c.Buf(a)
	e := mustEval(t, c)

	truth := []struct {
		a, b                                   Logic
		and, or, nand, nor, xor, xnor, not, bf Logic
	}{
		{L0, L0, L0, L0, L1, L1, L0, L1, L1, L0},
		{L0, L1, L0, L1, L1, L0, L1, L0, L1, L0},
		{L1, L0, L0, L1, L1, L0, L1, L0, L0, L1},
		{L1, L1, L1, L1, L0, L0, L0, L1, L0, L1},
	}
	for _, row := range truth {
		e.SetInputNet(a, row.a)
		e.SetInputNet(b, row.b)
		e.Eval()
		check := func(name string, n Net, want Logic) {
			if got := e.Value(n); got != want {
				t.Errorf("%s(%s,%s) = %s, want %s", name, row.a, row.b, got, want)
			}
		}
		check("and", and, row.and)
		check("or", or, row.or)
		check("nand", nand, row.nand)
		check("nor", nor, row.nor)
		check("xor", xor, row.xor)
		check("xnor", xnor, row.xnor)
		check("not", not, row.not)
		check("buf", buf, row.bf)
	}
}

func TestRippleAdderExhaustive(t *testing.T) {
	c := NewCircuit("add4")
	a := c.InputBus("a", 4)
	b := c.InputBus("b", 4)
	sum, cout := RippleAdder(c, a, b, c.Const(L0))
	c.OutputBus("s", sum)
	c.Output("cout", cout)
	e := mustEval(t, c)
	for x := uint64(0); x < 16; x++ {
		for y := uint64(0); y < 16; y++ {
			e.SetBus(a, x)
			e.SetBus(b, y)
			e.Eval()
			got, ok := e.BusValue(sum)
			if !ok {
				t.Fatalf("unknown sum bits for %d+%d", x, y)
			}
			co, _ := e.Value(cout).Bool()
			want := x + y
			if got != want&0xf || co != (want > 15) {
				t.Errorf("%d+%d = %d carry %v, want %d carry %v", x, y, got, co, want&0xf, want > 15)
			}
		}
	}
}

func TestSubtractor(t *testing.T) {
	c := NewCircuit("sub4")
	a := c.InputBus("a", 4)
	b := c.InputBus("b", 4)
	diff, noBorrow := RippleSubtractor(c, a, b)
	c.OutputBus("d", diff)
	c.Output("nb", noBorrow)
	e := mustEval(t, c)
	for x := uint64(0); x < 16; x++ {
		for y := uint64(0); y < 16; y++ {
			e.SetBus(a, x)
			e.SetBus(b, y)
			e.Eval()
			got, _ := e.BusValue(diff)
			nb, _ := e.Value(noBorrow).Bool()
			if got != (x-y)&0xf || nb != (x >= y) {
				t.Errorf("%d-%d = %d nb=%v", x, y, got, nb)
			}
		}
	}
}

func TestALUMatchesGolden(t *testing.T) {
	alu := NewALU(8)
	e := mustEval(t, alu.Circuit)
	vals := []uint64{0, 1, 0x55, 0xaa, 0x7f, 0x80, 0xff, 0x13}
	for op := ALUAdd; op <= ALUNot; op++ {
		for _, x := range vals {
			for _, y := range vals {
				e.SetBus(alu.A, x)
				e.SetBus(alu.B, y)
				e.SetBus(alu.Op, uint64(op))
				e.Eval()
				gy, ok := e.BusValue(alu.Y)
				if !ok {
					t.Fatalf("op %d: unknown Y bits", op)
				}
				gc, _ := e.Value(alu.Carry).Bool()
				gz, _ := e.Value(alu.Zero).Bool()
				wy, wc, wz := ALUGolden(op, x, y, 8)
				if gy != wy || gc != wc || gz != wz {
					t.Errorf("op%d(%#x,%#x): gate=(%#x,%v,%v) golden=(%#x,%v,%v)",
						op, x, y, gy, gc, gz, wy, wc, wz)
				}
			}
		}
	}
}

func TestStuckAtInjection(t *testing.T) {
	c := NewCircuit("inj")
	a := c.Input("a")
	b := c.Input("b")
	mid := c.And(a, b)
	out := c.Or(mid, c.Const(L0))
	c.Output("out", out)
	e := mustEval(t, c)
	e.SetInputNet(a, L1)
	e.SetInputNet(b, L1)
	e.Eval()
	if v, _ := e.Value(out).Bool(); !v {
		t.Fatal("fault-free output wrong")
	}
	e.InjectFault(mid, FaultStuckAt0)
	e.Eval()
	if v, _ := e.Value(out).Bool(); v {
		t.Error("stuck-at-0 on mid not observable")
	}
	e.ClearFaults()
	e.Eval()
	if v, _ := e.Value(out).Bool(); !v {
		t.Error("ClearFaults did not restore")
	}
	// Open fault poisons downstream to X.
	e.InjectFault(mid, FaultOpen)
	e.Eval()
	if e.Value(out) != LX {
		t.Errorf("open fault: out = %s, want x", e.Value(out))
	}
}

func TestInputFaultOverlay(t *testing.T) {
	c := NewCircuit("inj3")
	a := c.Input("a")
	y := c.Buf(a)
	e := mustEval(t, c)
	e.InjectFault(a, FaultStuckAt1)
	e.SetInputNet(a, L0) // stuck input ignores driven value
	e.Eval()
	if v := e.Value(y); v != L1 {
		t.Errorf("y = %s, want 1 (input stuck)", v)
	}
}

func TestCombinationalLoopDetected(t *testing.T) {
	c := NewCircuit("loop")
	a := c.Input("a")
	// Manual loop: create gate whose input is its own (later) output.
	x := c.And(a, a)
	// Rewire: make the and-gate read its own output.
	c.gates[0].In[1] = x
	if _, err := NewEvaluator(c); err == nil {
		t.Error("combinational loop not detected")
	}
}

func TestNetNames(t *testing.T) {
	c := NewCircuit("n")
	a := c.Input("alpha")
	if c.NetName(a) != "alpha" {
		t.Errorf("NetName = %q", c.NetName(a))
	}
	b := c.Buf(a)
	if c.NetName(b) != "n1" {
		t.Errorf("unnamed NetName = %q", c.NetName(b))
	}
	if c.NumGates() != 1 || c.NumNets() != 2 {
		t.Errorf("counts: %d gates, %d nets", c.NumGates(), c.NumNets())
	}
}

func TestKernelCircuitMatchesEvaluator(t *testing.T) {
	alu := NewALU(4)
	k := sim.NewKernel()
	kc := BindKernel(k, alu.Circuit)
	e := mustEval(t, alu.Circuit)

	type vec struct{ a, b, op uint64 }
	vecs := []vec{{3, 5, 0}, {9, 4, 1}, {0xa, 0x6, 2}, {0xa, 0x6, 4}, {1, 0, 5}, {8, 0, 6}, {0xf, 0, 7}}
	var mismatches int
	k.Thread("tb", func(ctx *sim.ThreadCtx) {
		for _, v := range vecs {
			kc.DriveBus(alu.A, v.a)
			kc.DriveBus(alu.B, v.b)
			kc.DriveBus(alu.Op, v.op)
			ctx.WaitTime(sim.NS(10)) // settle delta chain

			e.SetBus(alu.A, v.a)
			e.SetBus(alu.B, v.b)
			e.SetBus(alu.Op, v.op)
			e.Eval()

			kv, kok := kc.ReadBus(alu.Y)
			ev, eok := e.BusValue(alu.Y)
			if !kok || !eok || kv != ev {
				mismatches++
				t.Errorf("vec %+v: kernel=%#x(%v) evaluator=%#x(%v)", v, kv, kok, ev, eok)
			}
		}
	})
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if mismatches != 0 {
		t.Fatalf("%d mismatches between kernel and levelized evaluation", mismatches)
	}
}

// Property: for random vectors, the gate-level ALU always matches its
// behavioural golden model (the fault-free premise of experiment E2).
func TestPropertyALUEquivalence(t *testing.T) {
	alu := NewALU(8)
	e, err := NewEvaluator(alu.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8, op uint8) bool {
		o := ALUOp(op % 8)
		e.SetBus(alu.A, uint64(a))
		e.SetBus(alu.B, uint64(b))
		e.SetBus(alu.Op, uint64(o))
		e.Eval()
		gy, ok := e.BusValue(alu.Y)
		gc, _ := e.Value(alu.Carry).Bool()
		gz, _ := e.Value(alu.Zero).Bool()
		wy, wc, wz := ALUGolden(o, uint64(a), uint64(b), 8)
		return ok && gy == wy && gc == wc && gz == wz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: a stuck-at fault on any single net never violates the
// overlay contract — reading that net always yields the stuck value
// after Eval.
func TestPropertyStuckAtOverlay(t *testing.T) {
	alu := NewALU(4)
	e, err := NewEvaluator(alu.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	f := func(netIdx uint16, sa1 bool, a, b uint8) bool {
		n := Net(int(netIdx) % alu.Circuit.NumNets())
		kind := FaultStuckAt0
		want := L0
		if sa1 {
			kind = FaultStuckAt1
			want = L1
		}
		e.ClearFaults()
		e.InjectFault(n, kind)
		e.SetBus(alu.A, uint64(a&0xf))
		e.SetBus(alu.B, uint64(b&0xf))
		e.SetBus(alu.Op, 0)
		e.Eval()
		return e.Value(n) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEvaluatorALU(b *testing.B) {
	alu := NewALU(16)
	e, err := NewEvaluator(alu.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SetBus(alu.A, uint64(i))
		e.SetBus(alu.B, uint64(i*7))
		e.SetBus(alu.Op, uint64(i%8))
		e.Eval()
	}
}

func BenchmarkKernelALU(b *testing.B) {
	alu := NewALU(16)
	k := sim.NewKernel()
	kc := BindKernel(k, alu.Circuit)
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kc.DriveBus(alu.A, uint64(i))
		kc.DriveBus(alu.B, uint64(i*7))
		kc.DriveBus(alu.Op, uint64(i%8))
		if err := k.Run(sim.NS(10)); err != nil {
			b.Fatal(err)
		}
	}
}
