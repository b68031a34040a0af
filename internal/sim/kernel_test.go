package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0 s"},
		{7 * Picosecond, "7 ps"},
		{NS(15), "15 ns"},
		{US(2), "2 us"},
		{MS(9), "9 ms"},
		{3 * Second, "3 s"},
		{TimeMax, "t-max"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", uint64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1.0 {
		t.Errorf("Second.Seconds() = %v", Second.Seconds())
	}
	if MS(1) != US(1000) || US(1) != NS(1000) || NS(1) != 1000*Picosecond {
		t.Error("unit ladder inconsistent")
	}
}

func TestTimedNotification(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("e")
	var firedAt []Time
	k.MethodNoInit("watch", func() { firedAt = append(firedAt, k.Now()) }, e)
	e.Notify(NS(10))
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if len(firedAt) != 1 || firedAt[0] != NS(10) {
		t.Fatalf("firedAt = %v, want [10 ns]", firedAt)
	}
	if k.Now() != NS(10) {
		t.Fatalf("Now() = %v, want 10 ns", k.Now())
	}
}

func TestNotifyOverrideRules(t *testing.T) {
	// An earlier timed notification displaces a later pending one.
	k := NewKernel()
	e := k.NewEvent("e")
	var fired []Time
	k.MethodNoInit("watch", func() { fired = append(fired, k.Now()) }, e)
	e.Notify(NS(100))
	e.Notify(NS(5))  // displaces the 100ns one
	e.Notify(NS(50)) // ignored: 5ns is earlier
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != NS(5) {
		t.Fatalf("fired = %v, want [5 ns]", fired)
	}
}

func TestDeltaBeatsTimed(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("e")
	n := 0
	k.MethodNoInit("watch", func() { n++ }, e)
	e.Notify(NS(10))
	e.Notify(0) // delta displaces timed
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("fired %d times, want 1", n)
	}
	if k.Now() != 0 {
		t.Fatalf("event should have fired at time 0 (delta), Now=%v", k.Now())
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("e")
	n := 0
	k.MethodNoInit("watch", func() { n++ }, e)
	e.Notify(NS(10))
	e.Cancel()
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("cancelled event fired %d times", n)
	}
}

func TestMethodInitialActivation(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.Method("init", func() { ran++ })
	noInit := 0
	k.MethodNoInit("noinit", func() { noInit++ })
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Errorf("Method ran %d times at init, want 1", ran)
	}
	if noInit != 0 {
		t.Errorf("MethodNoInit ran %d times at init, want 0", noInit)
	}
}

// TestTriggerIsTheInitialActivation: a MethodNoInit process triggered
// runs where Method's initial activation runs it — in the first evaluate
// phase, after every lower process id — and, triggered again after a
// Restore to the checkpoint taken before, runs there again, where a
// process Method created anew would.
func TestTriggerIsTheInitialActivation(t *testing.T) {
	var order strings.Builder
	k := NewKernel()
	e := k.NewEvent("e")
	k.Method("a", func() { order.WriteString("a"); e.Notify(0) })
	k.MethodNoInit("b", func() { order.WriteString("b") }, e)
	p := k.MethodNoInit("late", func() { order.WriteString("L") })
	var cp Checkpoint
	if err := k.SnapshotInto(&cp); err != nil {
		t.Fatal(err)
	}
	for round := range 2 {
		order.Reset()
		p.Trigger()
		p.Trigger() // a runnable process stays queued once
		if err := k.RunUntil(10); err != nil {
			t.Fatal(err)
		}
		if got := order.String(); got != "aLb" {
			t.Errorf("round %d: activation order %q, want %q (a and the triggered process, then b a delta later)", round, got, "aLb")
		}
		if err := k.Restore(&cp); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSignalDeltaSemantics(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k, "s", 0)
	var seenDuringWrite int
	k.Method("writer", func() {
		s.Write(42)
		seenDuringWrite = s.Read() // must still be old value
	})
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if seenDuringWrite != 0 {
		t.Errorf("read-after-write in same evaluate phase = %d, want 0", seenDuringWrite)
	}
	if s.Read() != 42 {
		t.Errorf("committed value = %d, want 42", s.Read())
	}
}

func TestSignalLastWriteWins(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k, "s", 0)
	k.Method("writer", func() {
		s.Write(1)
		s.Write(2)
		s.Write(3)
	})
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if s.Read() != 3 {
		t.Errorf("value = %d, want 3 (last write wins)", s.Read())
	}
}

func TestSignalChangedEvent(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k, "s", 0)
	changes := 0
	k.MethodNoInit("mon", func() { changes++ }, s.Changed())
	k.Thread("drv", func(c *ThreadCtx) {
		s.Write(1)
		c.WaitTime(NS(1))
		s.Write(1) // no change: event must not fire
		c.WaitTime(NS(1))
		s.Write(2)
	})
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if changes != 2 {
		t.Errorf("changed fired %d times, want 2", changes)
	}
}

func TestSignalForceRelease(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k, "s", 10)
	s.Force(99)
	if s.Read() != 99 {
		t.Errorf("forced Read = %d, want 99", s.Read())
	}
	if s.ReadDriven() != 10 {
		t.Errorf("ReadDriven = %d, want 10", s.ReadDriven())
	}
	if !s.Forced() {
		t.Error("Forced() = false")
	}
	// Writes while forced still commit to the driven value.
	k.Method("w", func() { s.Write(20) })
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if s.Read() != 99 {
		t.Errorf("forced Read after write = %d, want 99", s.Read())
	}
	s.Release()
	if s.Read() != 20 {
		t.Errorf("released Read = %d, want 20 (driven)", s.Read())
	}
}

func TestForceFiresChanged(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k, "s", false)
	n := 0
	k.MethodNoInit("mon", func() { n++ }, s.Changed())
	k.Thread("inj", func(c *ThreadCtx) {
		c.WaitTime(NS(5))
		s.Force(true)
		c.WaitTime(NS(5))
		s.Release()
	})
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if n != 2 {
		t.Errorf("changed fired %d times across force/release, want 2", n)
	}
}

func TestThreadWaitTime(t *testing.T) {
	k := NewKernel()
	var at []Time
	k.Thread("t", func(c *ThreadCtx) {
		for i := 0; i < 3; i++ {
			c.WaitTime(NS(10))
			at = append(at, c.Now())
		}
	})
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	want := []Time{NS(10), NS(20), NS(30)}
	if len(at) != 3 {
		t.Fatalf("at = %v", at)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("at[%d] = %v, want %v", i, at[i], want[i])
		}
	}
}

func TestThreadWaitAnyOf(t *testing.T) {
	k := NewKernel()
	a := k.NewEvent("a")
	b := k.NewEvent("b")
	var cause *Event
	k.Thread("t", func(c *ThreadCtx) {
		cause = c.Wait(a, b)
	})
	k.Thread("kick", func(c *ThreadCtx) {
		c.WaitTime(NS(1))
		b.Notify(0)
	})
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if cause != b {
		t.Errorf("wait cause = %p, want b (%p)", cause, b)
	}
}

func TestStaticSensitivityThread(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("e")
	hits := 0
	k.Thread("t", func(c *ThreadCtx) {
		for {
			c.Wait() // static list
			hits++
			if hits == 3 {
				return
			}
		}
	}, e)
	k.Thread("kick", func(c *ThreadCtx) {
		for i := 0; i < 3; i++ {
			c.WaitTime(NS(1))
			e.Notify(0)
		}
	})
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if hits != 3 {
		t.Errorf("hits = %d, want 3", hits)
	}
}

func TestDeterministicOrdering(t *testing.T) {
	// Two processes triggered by one event must always run in creation
	// order, giving reproducible campaigns.
	run := func() string {
		k := NewKernel()
		e := k.NewEvent("e")
		var order strings.Builder
		k.MethodNoInit("b-second", func() { order.WriteString("B") }, e)
		k.MethodNoInit("c-third", func() { order.WriteString("C") }, e)
		k.Thread("kick", func(c *ThreadCtx) {
			for i := 0; i < 4; i++ {
				c.WaitTime(NS(1))
				e.Notify(0)
			}
		})
		if err := k.Run(TimeMax); err != nil {
			t.Fatal(err)
		}
		return order.String()
	}
	want := run()
	for i := 0; i < 20; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d ordering %q differs from %q", i, got, want)
		}
	}
	if want != "BCBCBCBC" {
		t.Fatalf("ordering = %q, want BCBCBCBC", want)
	}
}

func TestImmediateNotification(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("e")
	deltaAtFire := uint64(0)
	k.MethodNoInit("watch", func() { deltaAtFire = k.Stats().DeltaCycles }, e)
	k.Method("kick", func() { e.NotifyImmediate() })
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	// Immediate: watcher ran within the same delta cycle (count 0 before
	// the first deltaCycle increments at entry, so both saw cycle #1).
	if deltaAtFire != 1 {
		t.Errorf("watcher ran in delta %d, want 1 (same cycle as notifier)", deltaAtFire)
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	n := 0
	k.Thread("t", func(c *ThreadCtx) {
		for {
			c.WaitTime(NS(1))
			n++
			if n == 5 {
				c.Kernel().Stop()
			}
		}
	})
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if !k.Stopped() {
		t.Error("Stopped() = false")
	}
	if n != 5 {
		t.Errorf("iterations = %d, want 5", n)
	}
	k.Shutdown()
}

func TestDeltaOverflow(t *testing.T) {
	k := NewKernel()
	k.SetMaxDeltas(100)
	e := k.NewEvent("loop")
	k.MethodNoInit("spin", func() { e.Notify(0) }, e)
	e.Notify(0)
	err := k.Run(TimeMax)
	if err == nil {
		t.Fatal("expected delta overflow error")
	}
	if !strings.Contains(err.Error(), "delta cycle limit") {
		t.Errorf("err = %v", err)
	}
}

func TestRunHorizon(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("e")
	fired := false
	k.MethodNoInit("w", func() { fired = true }, e)
	e.Notify(NS(100))
	if err := k.Run(NS(50)); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("event beyond horizon fired")
	}
	if k.Now() != NS(50) {
		t.Errorf("Now = %v, want 50 ns", k.Now())
	}
	if err := k.Run(NS(50)); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event at horizon boundary did not fire on resumed run")
	}
	if k.Now() != NS(100) {
		t.Errorf("Now = %v, want 100 ns", k.Now())
	}
}

func TestNextEventTime(t *testing.T) {
	k := NewKernel()
	e1 := k.NewEvent("e1")
	e2 := k.NewEvent("e2")
	k.MethodNoInit("w", func() {}, e1, e2)
	e1.Notify(NS(30))
	e2.Notify(NS(10))
	if got := k.NextEventTime(); got != NS(10) {
		t.Errorf("NextEventTime = %v, want 10 ns", got)
	}
	// Displace e2's notification: the stale heap entry must be skipped.
	e2.Cancel()
	if got := k.NextEventTime(); got != NS(30) {
		t.Errorf("NextEventTime after cancel = %v, want 30 ns", got)
	}
}

func TestThreadPanicSurfaces(t *testing.T) {
	k := NewKernel()
	k.Thread("boom", func(c *ThreadCtx) {
		c.WaitTime(NS(1))
		panic("kaboom")
	})
	err := k.Run(TimeMax)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want thread panic surfaced", err)
	}
}

func TestShutdownKillsThreads(t *testing.T) {
	k := NewKernel()
	p := k.Thread("forever", func(c *ThreadCtx) {
		for {
			c.WaitTime(NS(1))
		}
	})
	if err := k.Run(NS(10)); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if !p.Done() {
		t.Error("thread not done after Shutdown")
	}
}

func TestStatsCounters(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("e")
	k.MethodNoInit("w", func() {}, e)
	k.Thread("kick", func(c *ThreadCtx) {
		for i := 0; i < 3; i++ {
			c.WaitTime(NS(1))
			e.Notify(0)
		}
	})
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	if st.TimeSteps != 3 {
		t.Errorf("TimeSteps = %d, want 3", st.TimeSteps)
	}
	if st.Activations == 0 || st.DeltaCycles == 0 {
		t.Errorf("zero counters: %+v", st)
	}
}

func TestTracerVCD(t *testing.T) {
	k := NewKernel()
	var buf strings.Builder
	tr := NewTracer(&buf)
	s := NewSignal(k, "clk", false)
	TraceSignal(tr, s)
	k.AttachTracer(tr)
	k.Thread("drv", func(c *ThreadCtx) {
		for i := 0; i < 4; i++ {
			c.WaitTime(NS(5))
			s.Write(!s.Read())
		}
	})
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	out := buf.String()
	for _, want := range []string{"$timescale 1ps $end", "$var wire 1 ! clk $end", "#5000", "1!", "0!"} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out)
		}
	}
}

func TestTracerVectorProbe(t *testing.T) {
	k := NewKernel()
	var buf strings.Builder
	tr := NewTracer(&buf)
	val := "0000"
	tr.AddProbe("bus", 4, func() string { return val })
	k.AttachTracer(tr)
	k.Thread("drv", func(c *ThreadCtx) {
		c.WaitTime(NS(1))
		val = "1010"
		c.WaitTime(NS(1))
	})
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "b1010 !") {
		t.Errorf("VCD missing vector change:\n%s", buf.String())
	}
}

func TestVCDCodeUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		c := vcdCode(i)
		if seen[c] {
			t.Fatalf("duplicate code %q at %d", c, i)
		}
		seen[c] = true
	}
}

// Property: however notifications interleave, simulation time never goes
// backwards and every fired event fires at-or-after its notify time.
func TestPropertyTimeMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 64 {
			delays = delays[:64]
		}
		k := NewKernel()
		e := k.NewEvent("e")
		last := Time(0)
		ok := true
		k.MethodNoInit("w", func() {
			if k.Now() < last {
				ok = false
			}
			last = k.Now()
		}, e)
		k.Thread("driver", func(c *ThreadCtx) {
			for _, d := range delays {
				e.Notify(Time(d%97) * Nanosecond)
				c.WaitTime(Time(d%13+1) * Nanosecond)
			}
		})
		if err := k.Run(TimeMax); err != nil {
			return false
		}
		k.Shutdown()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a signal driven by arbitrary write sequences always reports
// the last committed write, and Force always wins while held.
func TestPropertySignalCommit(t *testing.T) {
	f := func(vals []int8, forceAt uint8) bool {
		if len(vals) == 0 {
			return true
		}
		k := NewKernel()
		s := NewSignal(k, "s", 0)
		k.Thread("drv", func(c *ThreadCtx) {
			for _, v := range vals {
				s.Write(int(v))
				c.WaitTime(NS(1))
			}
		})
		if err := k.Run(TimeMax); err != nil {
			return false
		}
		k.Shutdown()
		if s.Read() != int(vals[len(vals)-1]) {
			return false
		}
		s.Force(1000)
		defer s.Release()
		return s.Read() == 1000 && s.ReadDriven() == int(vals[len(vals)-1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKernelMethodActivation(b *testing.B) {
	k := NewKernel()
	e := k.NewEvent("e")
	k.MethodNoInit("m", func() {}, e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Notify(NS(1))
		if err := k.Run(NS(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelThreadActivation(b *testing.B) {
	k := NewKernel()
	e := k.NewEvent("e")
	k.Thread("t", func(c *ThreadCtx) {
		for {
			c.Wait(e)
		}
	})
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Notify(NS(1))
		if err := k.Run(NS(1)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkKernelProcessKinds quantifies the method-vs-thread ablation
// called out in DESIGN.md §4: method activations avoid the goroutine
// context switch.
func BenchmarkKernelProcessKinds(b *testing.B) {
	b.Run("method", BenchmarkKernelMethodActivation)
	b.Run("thread", BenchmarkKernelThreadActivation)
}

func TestWaitDelta(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k, "s", 0)
	var sawOld, sawNew int
	k.Thread("t", func(c *ThreadCtx) {
		s.Write(42)
		sawOld = s.Read() // same evaluation phase: old value
		c.WaitTime(0)
		sawNew = s.Read() // one delta later: committed
	})
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if sawOld != 0 || sawNew != 42 {
		t.Errorf("sawOld=%d sawNew=%d", sawOld, sawNew)
	}
}

func TestPendingQuery(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("e")
	k.MethodNoInit("w", func() {}, e)
	if k.Pending() {
		t.Error("fresh kernel pending")
	}
	e.Notify(NS(5))
	if !k.Pending() {
		t.Error("timed notification not pending")
	}
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if k.Pending() {
		t.Error("drained kernel still pending")
	}
}

func TestRunReentrancyRejected(t *testing.T) {
	k := NewKernel()
	var innerErr error
	k.Method("m", func() {
		innerErr = k.Run(NS(1))
	})
	if err := k.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if innerErr == nil {
		t.Error("re-entrant Run accepted")
	}
}
