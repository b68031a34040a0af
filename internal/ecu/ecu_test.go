package ecu

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/tlm"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Instr{
		{Op: OpNOP},
		{Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpADDI, Rd: 15, Rs1: 0, Imm: -2048},
		{Op: OpADDI, Rd: 15, Rs1: 0, Imm: 2047},
		{Op: OpLW, Rd: 4, Rs1: 5, Imm: 16},
		{Op: OpSW, Rs1: 6, Rs2: 7, Imm: -4},
		{Op: OpBEQ, Rs1: 1, Rs2: 2, Imm: -10},
		{Op: OpJAL, Rd: 14, Imm: 100},
		{Op: OpHALT},
	}
	for _, ins := range cases {
		got, err := Decode(Encode(ins))
		if err != nil {
			t.Fatalf("%v: %v", ins, err)
		}
		if got != ins {
			t.Errorf("round trip: %+v -> %+v", ins, got)
		}
	}
}

func TestDecodeIllegal(t *testing.T) {
	if _, err := Decode(0xff000000); err == nil {
		t.Error("illegal opcode decoded")
	}
}

func TestDisassembly(t *testing.T) {
	cases := map[string]Instr{
		"add r1, r2, r3":  {Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3},
		"addi r4, r0, 42": {Op: OpADDI, Rd: 4, Rs1: 0, Imm: 42},
		"lw r2, 8(r3)":    {Op: OpLW, Rd: 2, Rs1: 3, Imm: 8},
		"sw r5, -4(r6)":   {Op: OpSW, Rs1: 6, Rs2: 5, Imm: -4},
		"halt":            {Op: OpHALT},
	}
	for want, ins := range cases {
		if got := ins.String(); got != want {
			t.Errorf("disasm = %q, want %q", got, want)
		}
	}
}

func TestAssembler(t *testing.T) {
	words, err := Assemble(`
		; compute 5 * 7 by repeated addition
		addi r1, r0, 5    ; counter
		addi r2, r0, 7
		addi r3, r0, 0    ; acc
	loop:
		beq  r1, r0, done
		add  r3, r3, r2
		addi r1, r1, -1
		jal  r0, loop
	done:
		sw   r3, 0(r0)
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 9 {
		t.Fatalf("words = %d", len(words))
	}
	// Check branch offset: beq at word 3, done at word 7 -> off 3.
	ins, err := Decode(words[3])
	if err != nil || ins.Op != OpBEQ || ins.Imm != 3 {
		t.Errorf("beq = %+v, %v", ins, err)
	}
	// jal at word 6 back to loop (word 3) -> off -4.
	ins, _ = Decode(words[6])
	if ins.Op != OpJAL || ins.Imm != -4 {
		t.Errorf("jal = %+v", ins)
	}
}

func TestAssemblerErrors(t *testing.T) {
	bad := []string{
		"frob r1, r2",
		"add r1, r2",
		"add r16, r1, r2",
		"addi r1, r0, 99999",
		"lw r1, r2",
		"beq r1, r2, nowhere",
		"x: x: halt",
		".word zz",
	}
	for i, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("bad asm %d accepted: %q", i, src)
		}
	}
}

// buildSystem wires a CPU to RAM via a router.
func buildSystem(t *testing.T, program string) (*sim.Kernel, *CPU, *tlm.Memory) {
	t.Helper()
	k := sim.NewKernel()
	cpu := NewCPU("cpu0")
	ram := tlm.NewMemory("ram", 0, 64*1024)
	ram.ReadLatency = sim.NS(10)
	ram.WriteLatency = sim.NS(10)
	bus := tlm.NewRouter("bus")
	bus.MustMap("ram", 0, 64*1024, ram)
	cpu.Bus.Bind(bus)
	LoadProgram(ram, 0x1000, MustAssemble(program))
	cpu.Reset(0x1000)
	return k, cpu, ram
}

func TestCPUMultiplyProgram(t *testing.T) {
	k, cpu, ram := buildSystem(t, `
		addi r1, r0, 5
		addi r2, r0, 7
		addi r3, r0, 0
	loop:
		beq  r1, r0, done
		add  r3, r3, r2
		addi r1, r1, -1
		jal  r0, loop
	done:
		sw   r3, 256(r0)
		halt
	`)
	var runErr error
	k.Thread("cpu", func(ctx *sim.ThreadCtx) {
		qk := tlm.NewQuantumKeeper(ctx, sim.US(1))
		runErr = cpu.Run(ctx, qk, 10000)
	})
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !cpu.Halted() {
		t.Fatal("cpu did not halt")
	}
	got := ram.Peek(256, 4)
	if got[0] != 35 {
		t.Errorf("result = %d, want 35", got[0])
	}
	if cpu.Instructions() == 0 || k.Now() == 0 {
		t.Error("no instructions or time consumed")
	}
}

func TestCPUHardwiredR0(t *testing.T) {
	k, cpu, _ := buildSystem(t, `
		addi r0, r0, 99
		sw   r0, 256(r0)
		halt
	`)
	k.Thread("cpu", func(ctx *sim.ThreadCtx) {
		qk := tlm.NewQuantumKeeper(ctx, 0)
		_ = cpu.Run(ctx, qk, 100)
	})
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	if cpu.Reg(0) != 0 {
		t.Error("r0 not hardwired to zero")
	}
}

func TestCPUALUOps(t *testing.T) {
	k, cpu, ram := buildSystem(t, `
		addi r1, r0, 12
		addi r2, r0, 10
		and  r3, r1, r2   ; 8
		or   r4, r1, r2   ; 14
		xor  r5, r1, r2   ; 6
		sub  r6, r1, r2   ; 2
		mul  r7, r1, r2   ; 120
		addi r8, r0, 2
		shl  r9, r1, r8   ; 48
		shr  r10, r1, r8  ; 3
		sw r3, 0(r0)
		sw r4, 4(r0)
		sw r5, 8(r0)
		sw r6, 12(r0)
		sw r7, 16(r0)
		sw r9, 20(r0)
		sw r10, 24(r0)
		halt
	`)
	k.Thread("cpu", func(ctx *sim.ThreadCtx) {
		qk := tlm.NewQuantumKeeper(ctx, sim.US(1))
		_ = cpu.Run(ctx, qk, 1000)
	})
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	want := []byte{8, 14, 6, 2, 120, 48, 3}
	for i, w := range want {
		if got := ram.Peek(uint64(4*i), 1)[0]; got != w {
			t.Errorf("result[%d] = %d, want %d", i, got, w)
		}
	}
}

// TestRETIReturnsToZero: the core has no interrupt line, so RETI — an
// opcode a corrupted instruction word can decode to — jumps to address
// 0.
func TestRETIReturnsToZero(t *testing.T) {
	k, cpu, ram := buildSystem(t, `
		addi r1, r0, 3
		reti
		addi r1, r0, 9
		halt
	`)
	LoadProgram(ram, 0, MustAssemble(`
		sw r1, 512(r0)
		halt
	`))
	k.Thread("cpu", func(ctx *sim.ThreadCtx) {
		qk := tlm.NewQuantumKeeper(ctx, sim.NS(200))
		if err := cpu.Run(ctx, qk, 100); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if !cpu.Halted() || cpu.PC() != 8 || ram.Peek(512, 1)[0] != 3 {
		t.Errorf("halted=%v pc=%#x stored %d; want the code at 0 to run and store 3", cpu.Halted(), cpu.PC(), ram.Peek(512, 1)[0])
	}
}

func TestCPURegisterSEUChangesResult(t *testing.T) {
	prog := `
		addi r1, r0, 5
		addi r2, r0, 7
		mul  r3, r1, r2
		sw   r3, 256(r0)
		halt
	`
	run := func(inject bool) byte {
		k, cpu, ram := buildSystem(t, prog)
		k.Thread("cpu", func(ctx *sim.ThreadCtx) {
			qk := tlm.NewQuantumKeeper(ctx, 0)
			for !cpu.Halted() {
				var d sim.Time
				if err := cpu.Step(&d); err != nil {
					t.Errorf("step: %v", err)
					return
				}
				qk.Inc(d)
				qk.Sync()
				if inject && cpu.Instructions() == 2 {
					cpu.FlipRegBit(1, 1) // r1: 5 -> 7
					inject = false
				}
			}
		})
		if err := k.Run(sim.TimeMax); err != nil {
			t.Fatal(err)
		}
		return ram.Peek(256, 1)[0]
	}
	if got := run(false); got != 35 {
		t.Fatalf("golden = %d", got)
	}
	if got := run(true); got != 49 {
		t.Errorf("SEU result = %d, want 49 (7*7)", got)
	}
}

func TestCPUTrapsOnBadFetch(t *testing.T) {
	k, cpu, _ := buildSystem(t, `halt`)
	cpu.Reset(0xdead0000) // unmapped
	var runErr error
	k.Thread("cpu", func(ctx *sim.ThreadCtx) {
		qk := tlm.NewQuantumKeeper(ctx, 0)
		runErr = cpu.Run(ctx, qk, 10)
	})
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	if runErr == nil || !strings.Contains(runErr.Error(), "fetch") {
		t.Errorf("runErr = %v", runErr)
	}
}

func TestECCEncodeDecodeClean(t *testing.T) {
	for _, v := range []uint32{0, 1, 0xffffffff, 0xdeadbeef, 0x55555555, 0x80000001} {
		c := eccEncode(v)
		got, status := eccDecode(v, c)
		if status != ECCOk || got != v {
			t.Errorf("clean decode of %#x: %v, %s", v, got, status)
		}
	}
}

func TestECCSingleBitCorrection(t *testing.T) {
	v := uint32(0xcafebabe)
	c := eccEncode(v)
	for bit := uint(0); bit < 32; bit++ {
		got, status := eccDecode(v^1<<bit, c)
		if status != ECCCorrected || got != v {
			t.Errorf("data bit %d: status %s, got %#x", bit, status, got)
		}
	}
	// Flipped check bits must also be recognized as single errors.
	for bit := uint(0); bit < 7; bit++ {
		got, status := eccDecode(v, c^1<<bit)
		if status != ECCCorrected || got != v {
			t.Errorf("check bit %d: status %s, got %#x", bit, status, got)
		}
	}
}

func TestECCDoubleBitDetection(t *testing.T) {
	v := uint32(0x12345678)
	c := eccEncode(v)
	cases := [][2]uint{{0, 1}, {3, 17}, {30, 31}, {5, 28}}
	for _, bits := range cases {
		_, status := eccDecode(v^1<<bits[0]^1<<bits[1], c)
		if status != ECCUncorrectable {
			t.Errorf("double flip %v: status %s", bits, status)
		}
	}
}

func TestECCMemoryEndToEnd(t *testing.T) {
	m := NewECCMemory(0, 1024)
	var d sim.Time
	p := tlm.NewWrite(16, []byte{0x78, 0x56, 0x34, 0x12})
	m.BTransport(p, &d)
	if !p.Response.OK() {
		t.Fatal(p.Response)
	}
	// SEU in stored data: read corrects and scrubs.
	if err := m.FlipStoredBit(16, 5); err != nil {
		t.Fatal(err)
	}
	q := tlm.NewRead(16, 4)
	m.BTransport(q, &d)
	if !q.Response.OK() || q.Data[0] != 0x78 {
		t.Errorf("corrected read = %v % x", q.Response, q.Data)
	}
	corr, unc := m.Stats()
	if corr != 1 || unc != 0 {
		t.Errorf("stats = %d, %d", corr, unc)
	}
	// Double flip: detected, bus error.
	if err := m.FlipStoredBit(16, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.FlipStoredBit(16, 9); err != nil {
		t.Fatal(err)
	}
	q2 := tlm.NewRead(16, 4)
	m.BTransport(q2, &d)
	if q2.Response.OK() {
		t.Error("double error not detected")
	}
	_, unc = m.Stats()
	if unc != 1 {
		t.Errorf("uncorrectable = %d", unc)
	}
}

func TestECCMemoryAlignment(t *testing.T) {
	m := NewECCMemory(0, 64)
	var d sim.Time
	p := tlm.NewRead(2, 4) // unaligned
	m.BTransport(p, &d)
	if p.Response != tlm.RespBurstError {
		t.Errorf("unaligned resp = %v", p.Response)
	}
	p2 := tlm.NewRead(0, 2) // not a word
	m.BTransport(p2, &d)
	if p2.Response != tlm.RespBurstError {
		t.Errorf("short resp = %v", p2.Response)
	}
	p3 := tlm.NewRead(1024, 4) // out of range
	m.BTransport(p3, &d)
	if p3.Response != tlm.RespAddressError {
		t.Errorf("oob resp = %v", p3.Response)
	}
}

func TestWatchdogKickKeepsAlive(t *testing.T) {
	k := sim.NewKernel()
	wd := NewWatchdog(k, "wd", sim.US(100))
	k.Thread("sw", func(ctx *sim.ThreadCtx) {
		wd.Start()
		for i := 0; i < 10; i++ {
			ctx.WaitTime(sim.US(50))
			wd.Kick()
		}
		wd.Stop()
	})
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	if wd.Timeouts() != 0 {
		t.Errorf("watchdog fired %d times despite kicks", wd.Timeouts())
	}
	if wd.Kicks() != 10 {
		t.Errorf("kicks = %d", wd.Kicks())
	}
}

func TestWatchdogTimeout(t *testing.T) {
	k := sim.NewKernel()
	wd := NewWatchdog(k, "wd", sim.US(100))
	k.Thread("sw", func(ctx *sim.ThreadCtx) {
		wd.Start()
		ctx.WaitTime(sim.US(50))
		wd.Kick()
		// then the software "hangs" — no more kicks
	})
	// The window the kick at 50 us opened closes at 150 us.
	for _, c := range []struct {
		at   sim.Time
		want uint64
	}{{sim.US(150) - 1, 0}, {sim.US(150), 1}, {sim.US(500), 4}} {
		if err := k.RunUntil(c.at); err != nil {
			t.Fatal(err)
		}
		if got := wd.Timeouts(); got != c.want {
			t.Errorf("timeouts by %v = %d, want %d", c.at, got, c.want)
		}
	}
	wd.Stop()
}

func TestWatchdogTLMInterface(t *testing.T) {
	k := sim.NewKernel()
	wd := NewWatchdog(k, "wd", sim.US(10))
	wd.Start()
	var d sim.Time
	sock := tlm.NewInitiatorSocket("sw")
	sock.Bind(wd)
	if resp := sock.Write32(0, 1, &d); !resp.OK() {
		t.Fatal(resp)
	}
	if wd.Kicks() != 1 {
		t.Error("TLM kick not counted")
	}
	if err := k.Run(sim.US(25)); err != nil {
		t.Fatal(err)
	}
	v, resp := sock.Read32(0, &d)
	if !resp.OK() || v == 0 {
		t.Errorf("timeout register = %d, %v", v, resp)
	}
}

const lockstepProg = `
	addi r1, r0, 0
	addi r2, r0, 10
loop:
	sw   r1, 512(r0)
	addi r1, r1, 1
	blt  r1, r2, loop
	halt
`

// buildLockstep wires two cores running lockstepProg to a comparator
// and returns the kernel, the comparator and the primary core.
func buildLockstep(t *testing.T) (*sim.Kernel, *Lockstep, *CPU) {
	t.Helper()
	k := sim.NewKernel()
	mk := func(name string) *CPU {
		cpu := NewCPU(name)
		ram := tlm.NewMemory(name+".ram", 0, 64*1024)
		ram.ReadLatency = sim.NS(10)
		bus := tlm.NewRouter(name + ".bus")
		bus.MustMap("ram", 0, 64*1024, ram)
		cpu.Bus.Bind(bus)
		LoadProgram(ram, 0x1000, MustAssemble(lockstepProg))
		cpu.Reset(0x1000)
		return cpu
	}
	p := mk("p")
	return k, NewLockstep(p, mk("s")), p
}

// runLockstep runs sc on a fresh runner and reports what the lockstep
// comparator saw.
func runLockstep(t *testing.T, sc fault.Scenario) (out fault.Outcome, diverged bool, detail string, stores [2]int) {
	t.Helper()
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out = r.RunScenarioWith(sc, func(s *ecuSlot) {
		diverged, detail = s.ls.Diverged(), s.ls.Detail()
		stores[0], stores[1] = s.ls.Stores()
	})
	return out, diverged, detail, stores
}

func TestLockstepCleanRun(t *testing.T) {
	out, diverged, detail, stores := runLockstep(t, fault.Scenario{ID: "clean"})
	if out.Class != fault.NoEffect || diverged {
		t.Errorf("clean run flagged: %s, %q", out.Class, detail)
	}
	// Two stores an iteration: the checksum and the watchdog kick.
	if stores != [2]int{2 * runnerTableLen, 2 * runnerTableLen} {
		t.Errorf("stores = %v", stores)
	}
}

func TestLockstepDetectsSEU(t *testing.T) {
	// Flip a bit in the shadow core's loop counter mid-run.
	out, diverged, detail, _ := runLockstep(t, fault.Single(fault.Descriptor{
		Name: "seu-shadow-r1", Model: fault.BitFlip, Class: fault.Permanent,
		Target: "ecu.shadow.regs", Address: 1, Bit: 3, Start: sim.US(1),
	}))
	if out.Class != fault.DetectedSafe || !diverged || out.Detail != "detected by lockstep" {
		t.Errorf("lockstep missed register SEU: %s, %q", out.Class, out.Detail)
	}
	if detail == "" {
		t.Error("no divergence detail")
	}
}

func TestRTOSNoMissesWhenSchedulable(t *testing.T) {
	k := sim.NewKernel()
	s := NewScheduler(k, sim.MS(10))
	if err := s.Add(&Task{Name: "ctrl", Period: sim.MS(1), WCET: sim.US(200)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(&Task{Name: "log", Period: sim.MS(2), WCET: sim.US(100)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Misses() != 0 {
		t.Errorf("misses = %d", s.Misses())
	}
}

// TestRTOSCountsEveryJob: with every job late, the miss count is the
// job count — 10 ctrl and 5 log jobs in 10 ms.
func TestRTOSCountsEveryJob(t *testing.T) {
	k := sim.NewKernel()
	s := NewScheduler(k, sim.MS(10))
	for _, task := range []*Task{
		{Name: "ctrl", Period: sim.MS(1), Deadline: sim.US(300), WCET: sim.US(200), ExtraDelay: sim.US(200)},
		{Name: "log", Period: sim.MS(2), Deadline: sim.US(150), WCET: sim.US(100), ExtraDelay: sim.US(100)},
	} {
		if err := s.Add(task); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if s.Misses() != 15 {
		t.Errorf("misses = %d, want 15 (every job)", s.Misses())
	}
}

func TestRTOSDelayFaultCausesMisses(t *testing.T) {
	k := sim.NewKernel()
	s := NewScheduler(k, sim.MS(10))
	task := &Task{Name: "ctrl", Period: sim.MS(1), Deadline: sim.US(500), WCET: sim.US(200)}
	if err := s.Add(task); err != nil {
		t.Fatal(err)
	}
	task.ExtraDelay = sim.US(400) // 200+400 > 500 deadline
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Misses() != 10 {
		t.Errorf("misses = %d, want 10 (every job)", s.Misses())
	}
}

func TestRTOSQuantumHidesMisses(t *testing.T) {
	// The exact (quantum 0) run sees the deadline misses; a huge
	// quantum makes the external observation miss them.
	run := func(quantum sim.Time) (trueMisses, observedMisses int) {
		k := sim.NewKernel()
		s := NewScheduler(k, sim.MS(10))
		s.Quantum = quantum
		task := &Task{Name: "ctrl", Period: sim.MS(1), Deadline: sim.US(500), WCET: sim.US(200), ExtraDelay: sim.US(400)}
		if err := s.Add(task); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Misses(), s.ObservedMisses()
	}
	tm0, om0 := run(0)
	if tm0 != om0 || tm0 == 0 {
		t.Errorf("quantum 0: true %d, observed %d (must agree)", tm0, om0)
	}
	tmBig, omBig := run(sim.MS(100))
	if tmBig != tm0 {
		t.Errorf("true misses changed with quantum: %d vs %d", tmBig, tm0)
	}
	if omBig >= tm0 {
		t.Errorf("huge quantum should hide misses from observation: observed %d of %d", omBig, tmBig)
	}
}

func TestRTOSRejectsBadTasks(t *testing.T) {
	k := sim.NewKernel()
	s := NewScheduler(k, sim.MS(1))
	if err := s.Add(&Task{Name: "x", Period: 0, WCET: 1}); err == nil {
		t.Error("zero period accepted")
	}
	if err := s.Add(&Task{Name: "x", Period: sim.MS(1), WCET: sim.MS(2)}); err == nil {
		t.Error("WCET > deadline accepted")
	}
}

// Property: ECC corrects every single-bit flip of any word and
// detects every double flip in data bits.
func TestPropertyECCSECDED(t *testing.T) {
	f := func(v uint32, b1, b2 uint8) bool {
		c := eccEncode(v)
		bit1 := uint(b1 % 32)
		got, st := eccDecode(v^1<<bit1, c)
		if st != ECCCorrected || got != v {
			return false
		}
		bit2 := uint(b2 % 32)
		if bit2 == bit1 {
			return true
		}
		_, st = eccDecode(v^1<<bit1^1<<bit2, c)
		return st == ECCUncorrectable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: assembler output decodes to legal instructions.
func TestPropertyAssemblerProducesLegalWords(t *testing.T) {
	f := func(a, b uint8) bool {
		src := `
			addi r1, r0, ` + itoa(int64(a)) + `
			addi r2, r0, ` + itoa(int64(b)) + `
			add  r3, r1, r2
			sw   r3, 0(r0)
			halt`
		words, err := Assemble(src)
		if err != nil {
			return false
		}
		for _, w := range words {
			if _, err := Decode(w); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

func BenchmarkCPUInstructions(b *testing.B) {
	k := sim.NewKernel()
	cpu := NewCPU("cpu0")
	ram := tlm.NewMemory("ram", 0, 64*1024)
	bus := tlm.NewRouter("bus")
	bus.MustMap("ram", 0, 64*1024, ram)
	cpu.Bus.Bind(bus)
	LoadProgram(ram, 0x1000, MustAssemble(`
	loop:
		addi r1, r1, 1
		jal r0, loop
	`))
	cpu.Reset(0x1000)
	b.ResetTimer()
	var count uint64
	k.Thread("cpu", func(ctx *sim.ThreadCtx) {
		qk := tlm.NewQuantumKeeper(ctx, sim.US(10))
		_ = cpu.Run(ctx, qk, uint64(b.N))
		count = cpu.Instructions()
	})
	if err := k.Run(sim.TimeMax); err != nil {
		b.Fatal(err)
	}
	if count < uint64(b.N) {
		b.Fatalf("ran %d of %d", count, b.N)
	}
}
