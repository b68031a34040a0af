package ecu

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/tlm"
)

func TestCPUAccessors(t *testing.T) {
	cpu := NewCPU("core0")
	if cpu.Name() != "core0" {
		t.Error("Name")
	}
	cpu.Reset(0x1000)
	if cpu.PC() != 0x1000 {
		t.Error("PC")
	}
	cpu.FlipPCBit(2)
	if cpu.PC() != 0x1004 {
		t.Errorf("PC after flip = %#x", cpu.PC())
	}
	cpu.FlipPCBit(64) // out of range: no-op
	if cpu.PC() != 0x1004 {
		t.Error("out-of-range PC flip changed state")
	}
	cpu.FlipRegBit(0, 3) // r0 immune
	if cpu.Reg(0) != 0 {
		t.Error("r0 flipped")
	}
}

func TestOpcodeStringsComplete(t *testing.T) {
	for op := OpNOP; op < opCount; op++ {
		if strings.HasPrefix(op.String(), "Opcode(") {
			t.Errorf("opcode %d has no name", op)
		}
	}
	if !strings.HasPrefix(Opcode(200).String(), "Opcode(") {
		t.Error("unknown opcode not flagged")
	}
}

func TestDisassemblyAllFormats(t *testing.T) {
	cases := []Instr{
		{Op: OpLUI, Rd: 3, Imm: 5},
		{Op: OpJAL, Rd: 14, Imm: -2},
		{Op: OpJALR, Rd: 0, Rs1: 14, Imm: 0},
		{Op: OpRETI},
		{Op: OpBGE, Rs1: 1, Rs2: 2, Imm: 8},
	}
	for _, ins := range cases {
		s := ins.String()
		if s == "" || strings.Contains(s, "?") {
			t.Errorf("disasm of %v = %q", ins.Op, s)
		}
	}
}

func TestCPUJALRAndLUI(t *testing.T) {
	k, cpu, ram := buildSystem(t, `
		lui  r1, 1        ; r1 = 1<<20 = 0x100000
		addi r2, r0, 0
		jal  r14, sub     ; call
		sw   r2, 256(r0)
		halt
	sub:
		addi r2, r0, 9
		jalr r0, r14, 0   ; return
	`)
	k.Thread("cpu", func(ctx *sim.ThreadCtx) {
		qk := tlm.NewQuantumKeeper(ctx, 0)
		if err := cpu.Run(ctx, qk, 100); err != nil {
			t.Errorf("run: %v", err)
		}
	})
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	if cpu.Reg(1) != 1<<20 {
		t.Errorf("lui r1 = %#x", cpu.Reg(1))
	}
	if ram.Peek(256, 1)[0] != 9 {
		t.Errorf("call/return result = %d", ram.Peek(256, 1)[0])
	}
}

func TestCPULoadStoreErrors(t *testing.T) {
	k, cpu, _ := buildSystem(t, `
		lui r1, 1024      ; 0x40000000: unmapped
		lw  r2, 0(r1)
		halt
	`)
	var runErr error
	k.Thread("cpu", func(ctx *sim.ThreadCtx) {
		qk := tlm.NewQuantumKeeper(ctx, 0)
		runErr = cpu.Run(ctx, qk, 100)
	})
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	if runErr == nil || !strings.Contains(runErr.Error(), "load") {
		t.Errorf("load error = %v", runErr)
	}

	k2, cpu2, _ := buildSystem(t, `
		lui r1, 1024
		sw  r2, 0(r1)
		halt
	`)
	k2.Thread("cpu", func(ctx *sim.ThreadCtx) {
		qk := tlm.NewQuantumKeeper(ctx, 0)
		runErr = cpu2.Run(ctx, qk, 100)
	})
	if err := k2.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	if runErr == nil || !strings.Contains(runErr.Error(), "store") {
		t.Errorf("store error = %v", runErr)
	}
}

func TestECCStatusStrings(t *testing.T) {
	if ECCOk.String() != "ok" || ECCCorrected.String() != "corrected" || ECCUncorrectable.String() != "uncorrectable" {
		t.Error("status strings")
	}
	if !strings.HasPrefix(ECCStatus(9).String(), "ECCStatus(") {
		t.Error("unknown status")
	}
}

func TestECCTransportDbg(t *testing.T) {
	m := NewECCMemory(0, 64)
	p := tlm.NewWrite(8, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if n := m.TransportDbg(p); n != 8 || !p.Response.OK() {
		t.Fatalf("dbg write = %d, %v", n, p.Response)
	}
	q := tlm.NewRead(8, 8)
	if n := m.TransportDbg(q); n != 8 {
		t.Fatalf("dbg read = %d", n)
	}
	for i, want := range []byte{1, 2, 3, 4, 5, 6, 7, 8} {
		if q.Data[i] != want {
			t.Errorf("dbg data[%d] = %d", i, q.Data[i])
		}
	}
	// Unaligned and out-of-range debug accesses fail cleanly.
	bad := tlm.NewRead(2, 4)
	if m.TransportDbg(bad); bad.Response == tlm.RespOK {
		t.Error("unaligned dbg accepted")
	}
	oob := tlm.NewRead(64, 4)
	if m.TransportDbg(oob); oob.Response == tlm.RespOK {
		t.Error("oob dbg accepted")
	}
}

func TestECCFlipStoredBitRanges(t *testing.T) {
	m := NewECCMemory(0, 64)
	if err := m.FlipStoredBit(0, 35); err != nil { // check-bit flip
		t.Fatal(err)
	}
	var d sim.Time
	q := tlm.NewRead(0, 4)
	m.BTransport(q, &d)
	if !q.Response.OK() {
		t.Error("check-bit flip not corrected")
	}
	corr, _ := m.Stats()
	if corr != 1 {
		t.Errorf("corrected = %d", corr)
	}
	if err := m.FlipStoredBit(0, 39); err == nil {
		t.Error("bit 39 accepted")
	}
	if err := m.FlipStoredBit(999, 0); err == nil {
		t.Error("unmapped flip accepted")
	}
}

func TestLockstepAccessors(t *testing.T) {
	k, ls, primary := buildLockstep(t)
	if ls.Diverged() {
		t.Error("fresh lockstep diverged")
	}
	// Run only the primary: FinalCheck must flag the count mismatch.
	k.Thread("primary-only", func(ctx *sim.ThreadCtx) {
		qk := tlm.NewQuantumKeeper(ctx, sim.US(1))
		_ = primary.Run(ctx, qk, 10000)
	})
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	ls.FinalCheck()
	if !ls.Diverged() || !strings.Contains(ls.Detail(), "count mismatch") {
		t.Errorf("diverged=%v detail=%q", ls.Diverged(), ls.Detail())
	}
	// FinalCheck after divergence is a no-op.
	detail := ls.Detail()
	ls.FinalCheck()
	if ls.Detail() != detail {
		t.Error("FinalCheck overwrote detail")
	}
}

// TestRTOSObservedNeverExceedsTrue: the kernel time at which a monitor
// sees a completion is never later than the exact completion. A task
// that truly misses every deadline is observed missing at most as
// often; a task whose exact completion lands on its deadline misses
// nothing, so a single observation past the completion shows up as an
// observed miss.
func TestRTOSObservedNeverExceedsTrue(t *testing.T) {
	run := func(q sim.Time, task *Task) *Scheduler {
		t.Helper()
		k := sim.NewKernel()
		s := NewScheduler(k, sim.MS(20))
		s.Quantum = q
		if err := s.Add(task); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
		return s
	}
	for _, q := range []sim.Time{0, sim.US(300), sim.MS(2), sim.MS(10)} {
		s := run(q, &Task{Name: "late", Period: sim.MS(1), Deadline: sim.US(600), WCET: sim.US(500), ExtraDelay: sim.US(300)})
		if s.ObservedMisses() > s.Misses() {
			t.Errorf("quantum %v: observed %d > true %d", q, s.ObservedMisses(), s.Misses())
		}
		s = run(q, &Task{Name: "on-time", Period: sim.MS(1), Deadline: sim.US(800), WCET: sim.US(500), ExtraDelay: sim.US(300)})
		if s.Misses() != 0 || s.ObservedMisses() != 0 {
			t.Errorf("quantum %v: completion on the deadline: true %d, observed %d misses, want 0 and 0", q, s.Misses(), s.ObservedMisses())
		}
	}
}

func TestWatchdogDisabledIgnoresKickAndExpiry(t *testing.T) {
	k := sim.NewKernel()
	wd := NewWatchdog(k, "wd", sim.US(10))
	wd.Kick() // not started: ignored
	if wd.Kicks() != 0 {
		t.Error("kick counted while stopped")
	}
	wd.Start()
	wd.Stop()
	if err := k.Run(sim.US(100)); err != nil {
		t.Fatal(err)
	}
	if wd.Timeouts() != 0 {
		t.Error("stopped watchdog fired")
	}
}
