package uvm

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/tlm"
)

// leaf is a minimal component recording phase execution.
type leaf struct {
	Comp
	log *[]string
}

func newLeaf(parent Component, name string, log *[]string) *leaf {
	l := &leaf{log: log}
	NewComp(l, parent, name)
	return l
}

func (l *leaf) Build()   { *l.log = append(*l.log, "build:"+l.Name()) }
func (l *leaf) Connect() { *l.log = append(*l.log, "connect:"+l.Name()) }
func (l *leaf) Extract() { *l.log = append(*l.log, "extract:"+l.Name()) }

type top struct {
	Comp
	log *[]string
}

func newTop(name string, log *[]string) *top {
	t := &top{log: log}
	NewComp(t, nil, name)
	return t
}

func (t *top) Build() {
	*t.log = append(*t.log, "build:"+t.Name())
	newLeaf(t, "a", t.log)
	newLeaf(t, "b", t.log)
}
func (t *top) Connect() { *t.log = append(*t.log, "connect:"+t.Name()) }

func TestPhaseOrdering(t *testing.T) {
	k := sim.NewKernel()
	env := NewEnv(k)
	var log []string
	tp := newTop("top", &log)
	errs := env.RunTest(tp, sim.MS(1))
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	want := []string{
		"build:top", "build:a", "build:b", // top-down, incl. children created in Build
		"connect:a", "connect:b", "connect:top", // bottom-up
		"extract:a", "extract:b", // top has no Extract override
	}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Errorf("log[%d] = %s, want %s", i, log[i], want[i])
		}
	}
}

func TestFullNames(t *testing.T) {
	k := sim.NewKernel()
	env := NewEnv(k)
	var log []string
	tp := newTop("env", &log)
	env.Elaborate(tp)
	if tp.Children()[0].FullName() != "env.a" {
		t.Errorf("FullName = %q", tp.Children()[0].FullName())
	}
	if tp.FullName() != "env" {
		t.Errorf("top FullName = %q", tp.FullName())
	}
}

type runner struct {
	Comp
	ticks *int
}

func (r *runner) Run(ctx *sim.ThreadCtx) {
	r.Env().RaiseObjection()
	for i := 0; i < 5; i++ {
		ctx.WaitTime(sim.NS(10))
		*r.ticks++
	}
	r.Env().DropObjection()
}

func TestObjectionEndsTest(t *testing.T) {
	k := sim.NewKernel()
	env := NewEnv(k)
	ticks := 0
	r := &runner{ticks: &ticks}
	NewComp(r, nil, "r")
	// A free-running clock would keep the kernel busy forever; the
	// objection mechanism must stop it.
	clk := k.NewEvent("clk")
	k.MethodNoInit("clkgen", func() { clk.Notify(sim.NS(1)) }, clk)
	clk.Notify(sim.NS(1))
	errs := env.RunTest(r, sim.TimeMax)
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5", ticks)
	}
	if k.Now() > sim.NS(60) {
		t.Errorf("test ran to %v; objection did not stop it", k.Now())
	}
}

func TestScoreboard(t *testing.T) {
	k := sim.NewKernel()
	env := NewEnv(k)
	sbTop := &struct{ Comp }{}
	NewComp(sbTop, nil, "t")
	sb := NewScoreboard[int](sbTop, "sb")
	env.Elaborate(sbTop)
	sb.Expect(1)
	sb.Expect(2)
	sb.Observe(1)
	sb.Observe(2)
	if sb.Matched() != 2 || sb.Check() != nil {
		t.Error("clean scoreboard reports failure")
	}
	sb.Observe(3)
	if err := sb.Check(); err == nil {
		t.Error("Check passed with surplus")
	}
}

func TestScoreboardMismatchAndMissing(t *testing.T) {
	k := sim.NewKernel()
	_ = k
	sbTop := &struct{ Comp }{}
	NewComp(sbTop, nil, "t")
	sb := NewScoreboard[string](sbTop, "sb")
	sb.Expect("a")
	sb.Observe("b")
	if err := sb.Check(); err == nil || !strings.Contains(err.Error(), "1 mismatches") {
		t.Errorf("mismatch check = %v", err)
	}
	sb2 := NewScoreboard[string](sbTop, "sb2")
	sb2.Expect("never")
	if err := sb2.Check(); err == nil || !strings.Contains(err.Error(), "never observed") {
		t.Errorf("missing check = %v", err)
	}
}

// memItem is the transaction type of the end-to-end testbench test.
type memItem struct {
	addr uint64
	data byte
}

// memEnv is a complete UVM testbench around a TLM memory DUT: a
// driver writes each item, reads it back and hands the readback to
// the scoreboard.
type memEnv struct {
	Comp
	dut *tlm.Memory
	sb  *Scoreboard[memItem]
	n   int
}

func newMemEnv(k *sim.Kernel, n int) *memEnv {
	e := &memEnv{dut: tlm.NewMemory("dut", 0, 256), n: n}
	NewComp(e, nil, "env")
	e.sb = NewScoreboard[memItem](e, "sb")
	return e
}

func (e *memEnv) Run(ctx *sim.ThreadCtx) {
	e.Env().RaiseObjection()
	sock := tlm.NewInitiatorSocket("drv")
	sock.Bind(e.dut)
	for i := 0; i < e.n; i++ {
		it := memItem{addr: uint64(i * 3 % 256), data: byte(i*7 + 1)}
		e.sb.Expect(it)
		var d sim.Time
		sock.Write(it.addr, []byte{it.data}, &d)
		got, _ := sock.Read(it.addr, 1, &d)
		ctx.WaitTime(d)
		e.sb.Observe(memItem{addr: it.addr, data: got[0]})
	}
	e.Env().DropObjection()
}

func TestEndToEndTestbench(t *testing.T) {
	k := sim.NewKernel()
	env := NewEnv(k)
	e := newMemEnv(k, 20)
	e.dut.ReadLatency = sim.NS(10)
	e.dut.WriteLatency = sim.NS(10)
	errs := env.RunTest(e, sim.TimeMax)
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	if e.sb.Matched() != 20 {
		t.Errorf("matched = %d, want 20", e.sb.Matched())
	}
}

// The same testbench detects an injected memory fault: the scoreboard
// is the failure detector of the error-effect simulation loop.
func TestEndToEndTestbenchDetectsFault(t *testing.T) {
	k := sim.NewKernel()
	env := NewEnv(k)
	e := newMemEnv(k, 20)
	if err := e.dut.StuckAt(3, 0, true); err != nil { // addr 3 bit 0 stuck-at-1
		t.Fatal(err)
	}
	errs := env.RunTest(e, sim.TimeMax)
	if len(errs) == 0 {
		t.Fatal("injected fault not detected by scoreboard")
	}
	if !strings.Contains(errs[0], "mismatch") {
		t.Errorf("errs = %v", errs)
	}
}
