package tlm

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestPayloadString(t *testing.T) {
	p := NewWrite(0x40, []byte{1, 2})
	p.Response = RespOK
	s := p.String()
	if !strings.Contains(s, "write") || !strings.Contains(s, "0x40") || !strings.Contains(s, "ok") {
		t.Errorf("String = %q", s)
	}
	if !strings.Contains(CmdIgnore.String(), "ignore") {
		t.Error("cmd string")
	}
	if !strings.HasPrefix(Command(99).String(), "Command(") || !strings.HasPrefix(Response(99).String(), "Response(") {
		t.Error("unknown enum strings")
	}
	if RespCommandError.String() != "command-error" || RespBurstError.String() != "burst-error" ||
		RespGenericError.String() != "generic-error" || RespIncomplete.String() != "incomplete" {
		t.Error("response names")
	}
}

func TestMemoryIgnoreAndBadCommand(t *testing.T) {
	m := NewMemory("m", 0, 16)
	var d sim.Time
	p := &Payload{Command: CmdIgnore, Address: 0, Data: make([]byte, 1)}
	m.BTransport(p, &d)
	if !p.Response.OK() {
		t.Errorf("ignore resp = %v", p.Response)
	}
	q := &Payload{Command: Command(77), Address: 0, Data: make([]byte, 1)}
	m.BTransport(q, &d)
	if q.Response != RespCommandError {
		t.Errorf("bad command resp = %v", q.Response)
	}
}

func TestSocketDbgOnPlainTarget(t *testing.T) {
	s := NewInitiatorSocket("s")
	s.Bind(TargetFunc(func(p *Payload, d *sim.Time) { p.Response = RespOK }))
	if n := s.TransportDbg(NewRead(0, 4)); n != 0 {
		t.Errorf("dbg on plain target = %d", n)
	}
}

func TestUnboundSocketPanics(t *testing.T) {
	s := NewInitiatorSocket("s")
	defer func() {
		if recover() == nil {
			t.Error("unbound BTransport did not panic")
		}
	}()
	var d sim.Time
	s.BTransport(NewRead(0, 1), &d)
}

func TestReadWriteErrorPropagation(t *testing.T) {
	m := NewMemory("m", 0x100, 16)
	s := NewInitiatorSocket("s")
	s.Bind(m)
	var d sim.Time
	if _, resp := s.Read32(0, &d); resp.OK() {
		t.Error("unmapped Read32 succeeded")
	}
	if resp := s.Write32(0, 1, &d); resp.OK() {
		t.Error("unmapped Write32 succeeded")
	}
}

func TestRouterUnmappedDbg(t *testing.T) {
	r := NewRouter("bus")
	m := NewMemory("m", 0, 16)
	r.MustMap("m", 0, 16, m)
	p := NewRead(0x100, 1)
	if n := r.TransportDbg(p); n != 0 || p.Response != RespAddressError {
		t.Errorf("dbg unmapped = %d, %v", n, p.Response)
	}
	// Router over a non-debug target.
	r2 := NewRouter("bus2")
	r2.MustMap("f", 0x40, 8, TargetFunc(func(p *Payload, d *sim.Time) { p.Response = RespOK }))
	if n := r2.TransportDbg(NewRead(0x42, 1)); n != 0 {
		t.Error("dbg through plain target")
	}
}

func TestRouterMustMapPanics(t *testing.T) {
	r := NewRouter("bus")
	m := NewMemory("m", 0, 16)
	r.MustMap("a", 0, 16, m)
	defer func() {
		if recover() == nil {
			t.Error("overlapping MustMap did not panic")
		}
	}()
	r.MustMap("b", 8, 16, m)
}

func TestQuantumKeeperZeroQuantum(t *testing.T) {
	k := sim.NewKernel()
	syncs := 0
	k.Thread("t", func(ctx *sim.ThreadCtx) {
		qk := NewQuantumKeeper(ctx, 0)
		for i := 0; i < 5; i++ {
			qk.Inc(sim.NS(10))
			if qk.SyncIfNeeded() {
				syncs++
			}
		}
		if qk.Quantum() != 0 {
			t.Error("quantum")
		}
		qk.SetQuantum(sim.US(1))
		if qk.Quantum() != sim.US(1) {
			t.Error("SetQuantum")
		}
	})
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	if syncs != 5 {
		t.Errorf("zero quantum syncs = %d, want 5 (every Inc)", syncs)
	}
	if k.Now() != sim.NS(50) {
		t.Errorf("Now = %v", k.Now())
	}
}

func TestQuantumKeeperSyncOnEmpty(t *testing.T) {
	k := sim.NewKernel()
	k.Thread("t", func(ctx *sim.ThreadCtx) {
		qk := NewQuantumKeeper(ctx, sim.US(1))
		before := k.Stats()
		qk.Sync() // zero local time: no-op
		if after := k.Stats(); after != before {
			t.Errorf("empty Sync yielded to the kernel: stats %+v, then %+v", before, after)
		}
	})
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
}

func TestATPhasePanicsOnProtocolViolation(t *testing.T) {
	k := sim.NewKernel()
	mem := NewMemory("m", 0, 16)
	req := NewATRequester(k, "cpu")
	at := NewATTarget(k, "m.at", mem, req)
	req.Bind(at)
	defer func() {
		if recover() == nil {
			t.Error("bad forward phase accepted")
		}
	}()
	ph := PhaseBeginResp // initiators never send BEGIN_RESP forward
	var d sim.Time
	at.NBTransportFw(NewRead(0, 1), &ph, &d)
}
