package can

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestFrameValidate(t *testing.T) {
	if err := (Frame{ID: 0x123, Data: []byte{1, 2, 3}}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Frame{ID: 0x800}).Validate(); err == nil {
		t.Error("12-bit ID accepted")
	}
	if err := (Frame{ID: 1, Data: make([]byte, 9)}).Validate(); err == nil {
		t.Error("9-byte payload accepted")
	}
}

func TestFrameBits(t *testing.T) {
	empty := Frame{ID: 1}
	full := Frame{ID: 1, Data: make([]byte, 8)}
	if empty.Bits() >= full.Bits() {
		t.Error("bits not monotone in payload")
	}
	if empty.Bits() < 44 || full.Bits() > 140 {
		t.Errorf("bits out of plausible range: %d, %d", empty.Bits(), full.Bits())
	}
}

func busFixture(t *testing.T) (*sim.Kernel, *Bus) {
	t.Helper()
	k := sim.NewKernel()
	return k, NewBus(k, "can0")
}

// keep copies a delivered frame out of the bus's delivery buffer, as a
// receiver that holds on to one must.
func keep(f Frame) Frame {
	return Frame{ID: f.ID, Data: append([]byte(nil), f.Data...)}
}

func TestCleanDelivery(t *testing.T) {
	k, b := busFixture(t)
	tx := b.Attach("sensor")
	rx := b.Attach("airbag")
	var got []Frame
	var at []sim.Time
	rx.OnReceive = func(f Frame, now sim.Time) {
		got = append(got, keep(f))
		at = append(at, now)
	}
	if err := tx.Send(Frame{ID: 0x100, Data: []byte{42}}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Data[0] != 42 {
		t.Fatalf("got = %v", got)
	}
	// Duration: frame bits * 2us.
	wantAt := sim.Time(Frame{ID: 0x100, Data: []byte{42}}.Bits()) * sim.US(2)
	if at[0] != wantAt {
		t.Errorf("delivered at %v, want %v", at[0], wantAt)
	}
	if tx.Pending() != 0 {
		t.Errorf("%d frames still queued after delivery", tx.Pending())
	}
}

func TestArbitrationLowestIDWins(t *testing.T) {
	k, b := busFixture(t)
	hi := b.Attach("high-prio")
	lo := b.Attach("low-prio")
	mon := b.Attach("monitor")
	var order []uint16
	mon.OnReceive = func(f Frame, _ sim.Time) { order = append(order, f.ID) }
	// Queue in reverse priority order; both contend at time 0.
	if err := lo.Send(Frame{ID: 0x400, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if err := hi.Send(Frame{ID: 0x010, Data: []byte{2}}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 0x010 || order[1] != 0x400 {
		t.Errorf("order = %v, want high priority first", order)
	}
}

func TestCorruptionTriggersRetransmit(t *testing.T) {
	k, b := busFixture(t)
	tx := b.Attach("tx")
	rx := b.Attach("rx")
	var got []Frame
	var at sim.Time
	rx.OnReceive = func(f Frame, now sim.Time) { got, at = append(got, keep(f)), now }
	b.CorruptNextFrames(1)
	if err := tx.Send(Frame{ID: 0x50, Data: []byte{7}}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	// First attempt corrupted (no delivery), retransmission clean.
	if len(got) != 1 || got[0].Data[0] != 7 {
		t.Fatalf("got = %v", got)
	}
	tec, _ := tx.Counters()
	// +8 for the error, -1 for the successful retransmit.
	if tec != 7 {
		t.Errorf("TEC = %d, want 7", tec)
	}
	_, rec := rx.Counters()
	if rec != 0 { // +1 then -1
		t.Errorf("REC = %d, want 0", rec)
	}
	// Both attempts took the wire, back to back.
	if want := 2 * sim.Time(Frame{ID: 0x50, Data: []byte{7}}.Bits()) * b.BitTime; at != want {
		t.Errorf("delivered at %v, want %v (two frame times)", at, want)
	}
}

func TestOmissionFault(t *testing.T) {
	k, b := busFixture(t)
	tx := b.Attach("tx")
	rx := b.Attach("rx")
	delivered := 0
	rx.OnReceive = func(Frame, sim.Time) { delivered++ }
	b.DropNextFrames(1)
	if err := tx.Send(Frame{ID: 0x7, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Send(Frame{ID: 0x7, Data: []byte{2}}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1 (first dropped silently)", delivered)
	}
}

func TestBusOffAfterPersistentErrors(t *testing.T) {
	k, b := busFixture(t)
	b.MaxRetries = 1000 // keep retrying the same frame
	tx := b.Attach("tx")
	b.Attach("rx")
	b.CorruptNextFrames(40) // 40 * +8 = 320 > 255
	if err := tx.Send(Frame{ID: 0x1, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	if tx.State() != BusOff {
		tec, _ := tx.Counters()
		t.Errorf("state = %s (TEC %d), want bus-off", tx.State(), tec)
	}
	// Bus-off nodes refuse further traffic.
	if err := tx.Send(Frame{ID: 0x2}); err == nil {
		t.Error("bus-off node accepted a frame")
	}
}

func TestErrorPassiveTransition(t *testing.T) {
	k, b := busFixture(t)
	b.MaxRetries = 17 // 17 corruptions: TEC ~ 16*8 = 128 + ... > 127
	tx := b.Attach("tx")
	b.Attach("rx")
	b.CorruptNextFrames(17)
	if err := tx.Send(Frame{ID: 0x1, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	if tx.State() == ErrorActive {
		tec, _ := tx.Counters()
		t.Errorf("state = error-active (TEC %d) after 17 errors", tec)
	}
}

func TestBabblingIdiotStarvesBus(t *testing.T) {
	k, b := busFixture(t)
	babbler := b.Attach("babbler")
	victim := b.Attach("victim")
	mon := b.Attach("monitor")
	babbler.Babbling = true
	victimDelivered, junk := 0, 0
	mon.OnReceive = func(f Frame, _ sim.Time) {
		switch f.ID {
		case 0x300:
			victimDelivered++
		case 0:
			junk++
		}
	}
	if err := victim.Send(Frame{ID: 0x300, Data: []byte{9}}); err != nil {
		t.Fatal(err)
	}
	b.kick()
	if err := k.Run(sim.MS(20)); err != nil {
		t.Fatal(err)
	}
	// The babbler's ID 0 always wins: the victim frame never goes out.
	if victimDelivered != 0 {
		t.Errorf("victim frame delivered %d times under babbling idiot", victimDelivered)
	}
	if junk < 10 {
		t.Errorf("%d junk frames delivered; babbler should dominate the bus", junk)
	}
	k.Shutdown()
}

func TestStateStrings(t *testing.T) {
	if ErrorActive.String() != "error-active" || BusOff.String() != "bus-off" || ErrorPassive.String() != "error-passive" {
		t.Error("state strings")
	}
}

// Property: with a clean channel every queued frame is delivered to
// every other node exactly once, in ID order per arbitration round.
func TestPropertyCleanBusDeliversAll(t *testing.T) {
	f := func(ids []uint16) bool {
		if len(ids) == 0 || len(ids) > 20 {
			return true
		}
		seen := map[uint16]bool{}
		var unique []uint16
		for _, id := range ids {
			id &= 0x7ff
			if !seen[id] {
				seen[id] = true
				unique = append(unique, id)
			}
		}
		k := sim.NewKernel()
		b := NewBus(k, "can0")
		tx := b.Attach("tx")
		rx := b.Attach("rx")
		got := 0
		rx.OnReceive = func(Frame, sim.Time) { got++ }
		for _, id := range unique {
			if err := tx.Send(Frame{ID: id, Data: []byte{byte(id)}}); err != nil {
				return false
			}
		}
		if err := k.Run(sim.TimeMax); err != nil {
			return false
		}
		return got == len(unique)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBusThroughput(b *testing.B) {
	k := sim.NewKernel()
	bus := NewBus(k, "can0")
	tx := bus.Attach("tx")
	bus.Attach("rx")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.Send(Frame{ID: uint16(i) & 0x7ff, Data: []byte{byte(i)}}); err != nil {
			b.Fatal(err)
		}
		if err := k.Run(sim.TimeMax); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRetainedFrameAliasesDeliveryBuffer pins the OnReceive lifetime
// rule to what the package doc says of a frame kept without copying:
// ID and length stay, Data reads the latest delivered payload,
// zero-padded.
func TestRetainedFrameAliasesDeliveryBuffer(t *testing.T) {
	k, b := busFixture(t)
	tx := b.Attach("tx")
	rx := b.Attach("rx")
	var kept []Frame
	rx.OnReceive = func(f Frame, _ sim.Time) {
		if want := byte(len(kept) + 1); f.Data[0] != want {
			t.Errorf("inside the callback Data[0] = %d, want %d", f.Data[0], want)
		}
		kept = append(kept, f) // no copy
	}
	for _, f := range []Frame{
		{ID: 0x10, Data: []byte{1, 0xaa, 0xbb}},
		{ID: 0x20, Data: []byte{2, 0xcc}},
		{ID: 0x30, Data: []byte{3}},
	} {
		if err := tx.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	if len(kept) != 3 {
		t.Fatalf("delivered %d frames, want 3", len(kept))
	}
	// The last delivery was {3}: every kept frame now reads its bytes.
	for i, want := range []Frame{
		{ID: 0x10, Data: []byte{3, 0, 0}},
		{ID: 0x20, Data: []byte{3, 0}},
		{ID: 0x30, Data: []byte{3}},
	} {
		if got := kept[i]; got.ID != want.ID || string(got.Data) != string(want.Data) {
			t.Errorf("kept[%d] = %v, want %v", i, got, want)
		}
	}
	// The sender's side is the other half of the contract: its buffer is
	// its own again once Send returns.
	buf := []byte{9}
	if err := tx.Send(Frame{ID: 0x40, Data: buf}); err != nil {
		t.Fatal(err)
	}
	buf[0] = 0
	rx.OnReceive = func(f Frame, _ sim.Time) { kept = append(kept, keep(f)) }
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	if got := kept[3].Data[0]; got != 9 {
		t.Errorf("frame sent from a reused buffer delivered %d, want 9", got)
	}
}

// TestQueueSlidesInPlace: the queue dequeues in O(1) at any depth and
// keeps its array — a deep queue drains in order, and a node that
// sends and completes at a steady depth never moves to a larger one.
func TestQueueSlidesInPlace(t *testing.T) {
	k, b := busFixture(t)
	tx := b.Attach("tx")
	rx := b.Attach("rx")
	var got []byte
	rx.OnReceive = func(f Frame, _ sim.Time) { got = append(got, f.Data[0]) }
	const deep = 667
	for i := 0; i < deep; i++ {
		if err := tx.Send(Frame{ID: 0x100, Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	if len(got) != deep {
		t.Fatalf("delivered %d of %d", len(got), deep)
	}
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("frame %d delivered out of order (payload %d)", i, v)
		}
	}
	// Steady depth 3: one frame completes, one is sent, 10 000 times over.
	got = got[:0]
	for i := 0; i < 3; i++ {
		_ = tx.Send(Frame{ID: 0x100, Data: []byte{byte(i)}})
	}
	size := cap(tx.qbuf)
	frameTime := sim.Time(Frame{ID: 0x100, Data: []byte{0}}.Bits()) * b.BitTime
	for i := 3; i < 10_000; i++ {
		if err := k.RunUntil(k.Now() + frameTime); err != nil {
			t.Fatal(err)
		}
		if tx.Pending() != 2 {
			t.Fatalf("round %d: %d pending, want 2", i, tx.Pending())
		}
		_ = tx.Send(Frame{ID: 0x100, Data: []byte{byte(i)}})
	}
	if cap(tx.qbuf) != size {
		t.Errorf("queue array grew from %d to %d frames at a steady depth of 3", size, cap(tx.qbuf))
	}
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("steady-depth frame %d delivered out of order (payload %d)", i, v)
		}
	}
}

// TestSteadyStateRoundAllocatesNothing: once the queues and the
// kernel's own buffers have their capacity, a Send → arbitrate → deliver
// round costs no heap object — on a clean bus, with every fourth frame
// corrupted and retransmitted, and with a babbling node holding the bus
// (whose junk frames are all that gets through).
func TestSteadyStateRoundAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name             string
		corrupt, babbler bool
	}{
		{name: "clean"},
		{name: "corrupted", corrupt: true},
		{name: "babbling", babbler: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, b := busFixture(t)
			defer k.Shutdown()
			tx := b.Attach("tx")
			rx := b.Attach("rx")
			b.Attach("babbler").Babbling = tc.babbler
			delivered := 0
			rx.OnReceive = func(f Frame, _ sim.Time) { delivered += len(f.Data) }
			payload := [2]byte{7, 1}
			rounds := 0
			round := func() {
				rounds++
				if tc.corrupt && rounds%4 == 0 {
					b.CorruptNextFrames(1)
				}
				if !tc.babbler || rounds == 1 { // behind a babbler frames only queue up: one is enough
					if err := tx.Send(Frame{ID: 0x120, Data: payload[:]}); err != nil {
						t.Fatal(err)
					}
				}
				if err := k.RunUntil(k.Now() + sim.MS(1)); err != nil {
					t.Fatal(err)
				}
			}
			// Warm up past every buffer's growth.
			for i := 0; i < 64; i++ {
				round()
			}
			if avg := testing.AllocsPerRun(32, round); avg != 0 {
				t.Errorf("%v allocations per round, want 0", avg)
			}
			if delivered == 0 {
				t.Error("nothing was delivered")
			}
		})
	}
}
