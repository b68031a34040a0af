package sim

import (
	"fmt"
	"strings"
	"testing"
)

// snapModel elaborates a small method-only model whose state is a pure
// function of simulated time: a ticker writing the clock into a signal
// every 7ns, and a kicker that occasionally displaces the pending tick
// to exercise timed-queue displacement across snapshot/restore.
func snapModel(k *Kernel, name string) *Signal[uint64] {
	sig := NewSignal(k, name+".sig", uint64(0))
	tick := k.NewEvent(name + ".tick")
	kick := k.NewEvent(name + ".kick")
	k.MethodNoInit(name+".ticker", func() {
		sig.Write(uint64(k.Now()))
		tick.Notify(NS(7))
		if k.Now()%NS(3) == 0 {
			kick.Notify(NS(2))
		}
	}, tick)
	k.MethodNoInit(name+".kicker", func() {
		tick.Notify(NS(1))
	}, kick)
	tick.Notify(NS(5))
	return sig
}

// TestSnapshotRejectsMidDelta: SnapshotInto from inside a process body —
// mid-delta-cycle — must fail with an error saying the kernel is
// running, never tear the evaluate/update phases apart.
func TestSnapshotRejectsMidDelta(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	ev := k.NewEvent("ev")
	var serr error
	k.MethodNoInit("snapper", func() { serr = k.SnapshotInto(&Checkpoint{}) }, ev)
	ev.Notify(NS(1))
	if err := k.Run(US(1)); err != nil {
		t.Fatal(err)
	}
	if serr == nil || !strings.Contains(serr.Error(), "running") {
		t.Fatalf("mid-delta Snapshot error = %v, want a 'running' rejection", serr)
	}
}

// TestSnapshotRejections: the remaining guard rails — pending delta
// notifications, pending channel updates, attached tracers, live thread
// processes — each refuse with a message naming the problem. (Runnable
// method processes do not: a pristine kernel is snapshottable, see
// root_test.go.)
func TestSnapshotRejections(t *testing.T) {
	t.Run("pending delta", func(t *testing.T) {
		k := NewKernel()
		defer k.Shutdown()
		snapModel(k, "m")
		if err := k.Run(NS(50)); err != nil {
			t.Fatal(err)
		}
		k.NewEvent("ev").Notify(0)
		if err := k.SnapshotInto(&Checkpoint{}); err == nil || !strings.Contains(err.Error(), "delta notifications") {
			t.Fatalf("Snapshot with a pending delta notification: %v", err)
		}
	})
	t.Run("pending update", func(t *testing.T) {
		k := NewKernel()
		defer k.Shutdown()
		sig := snapModel(k, "m")
		if err := k.Run(NS(50)); err != nil {
			t.Fatal(err)
		}
		sig.Write(1)
		if err := k.SnapshotInto(&Checkpoint{}); err == nil || !strings.Contains(err.Error(), "channel updates") {
			t.Fatalf("Snapshot with a pending channel update: %v", err)
		}
	})
	t.Run("tracer attached", func(t *testing.T) {
		k := NewKernel()
		defer k.Shutdown()
		snapModel(k, "m")
		if err := k.Run(NS(50)); err != nil {
			t.Fatal(err)
		}
		k.AttachTracer(NewTracer(&strings.Builder{}))
		if err := k.SnapshotInto(&Checkpoint{}); err == nil || !strings.Contains(err.Error(), "tracer") {
			t.Fatalf("Snapshot with attached tracer: %v", err)
		}
	})
	t.Run("live thread", func(t *testing.T) {
		k := NewKernel()
		defer k.Shutdown()
		never := k.NewEvent("never")
		k.Thread("parked", func(ctx *ThreadCtx) { ctx.Wait(never) })
		if err := k.Run(NS(10)); err != nil {
			t.Fatal(err)
		}
		if err := k.SnapshotInto(&Checkpoint{}); err == nil || !strings.Contains(err.Error(), "parked") {
			t.Fatalf("Snapshot with live thread: %v", err)
		}
	})
}

// TestSnapshotRestoreTrajectory is the core rewind guarantee: run the
// golden prefix, snapshot, simulate well past it, restore, simulate
// again — the second continuation must reproduce the first one's
// trajectory bit for bit, compared via golden VCD dumps of the model
// signal (fresh tracer per continuation; tracers are forward-only and
// Restore detaches them).
func TestSnapshotRestoreTrajectory(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	sig := snapModel(k, "m")
	if err := k.Run(NS(50)); err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	if err := k.SnapshotInto(&cp); err != nil {
		t.Fatal(err)
	}
	if cp.Now() != NS(50) {
		t.Fatalf("checkpoint time = %v, want 50ns", cp.Now())
	}
	continuation := func() (string, Stats) {
		var vcd strings.Builder
		tr := NewTracer(&vcd)
		tr.AddProbe("sig", 64, func() string { return fmt.Sprintf("%b", sig.Read()) })
		k.AttachTracer(tr)
		if err := k.RunUntil(NS(200)); err != nil {
			t.Fatal(err)
		}
		if tr.Err() != nil {
			t.Fatal(tr.Err())
		}
		return vcd.String(), k.Stats()
	}
	first, firstStats := continuation()
	if !strings.Contains(first, "#") {
		t.Fatalf("continuation traced nothing:\n%s", first)
	}
	for i := 0; i < 3; i++ {
		if err := k.Restore(&cp); err != nil {
			t.Fatal(err)
		}
		if k.Now() != NS(50) {
			t.Fatalf("restore %d left clock at %v", i, k.Now())
		}
		again, againStats := continuation()
		if again != first {
			t.Fatalf("restore %d diverged from original trajectory\nfirst:\n%s\nagain:\n%s", i, first, again)
		}
		if againStats != firstStats {
			t.Fatalf("restore %d stats diverged: %+v vs %+v", i, againStats, firstStats)
		}
	}
}

// TestSnapshotRestoreRetiresPostSnapshotObjects: events and processes
// elaborated after the snapshot (the campaign stressor pattern) are
// retired by Restore and re-elaboration pops them back from the pools
// — the restore-respawn-run loop is allocation-free in steady state,
// so pooled events cannot leak across checkpoint cycles.
func TestSnapshotRestoreRetiresPostSnapshotObjects(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	snapModel(k, "m")
	if err := k.Run(NS(50)); err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	if err := k.SnapshotInto(&cp); err != nil {
		t.Fatal(err)
	}
	hits := 0
	fn := func() { hits++ }
	cycle := func() {
		ev := k.NewEvent("stressor.ev")
		k.MethodNoInit("stressor", fn, ev)
		ev.Notify(NS(10))
		if err := k.RunUntil(NS(200)); err != nil {
			t.Fatal(err)
		}
		if err := k.Restore(&cp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle() // warm the pools to their high-water mark
	}
	events, procs := len(k.events), len(k.procs)
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("restore-respawn loop allocates %.1f allocs/run, want 0", avg)
	}
	if len(k.events) != events || len(k.procs) != procs {
		t.Fatalf("restore leaked objects: %d->%d events, %d->%d procs",
			events, len(k.events), procs, len(k.procs))
	}
	if hits == 0 {
		t.Fatal("respawned stressor never ran")
	}
	// Repeated snapshots through the same Checkpoint reuse its buffers.
	if avg := testing.AllocsPerRun(100, func() {
		if err := k.SnapshotInto(&cp); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("SnapshotInto allocates %.1f allocs/run in steady state, want 0", avg)
	}
}

// TestRestoreRule pins the restore rule, elaboration shape rather than
// kernel identity, on one checkpoint taken at 50 ns. The source kernel,
// run off the golden path first, and a second kernel of the same
// elaboration accept it and run on from it exactly as a kernel that was
// never restored runs on from 50 ns; an empty kernel and a kernel holding
// as many objects under other names refuse it.
func TestRestoreRule(t *testing.T) {
	// continuation runs k from wherever it stands to 200 ns and returns
	// what it traced of the model signal on the way, with the final
	// clock and activity counters.
	continuation := func(k *Kernel, sig *Signal[uint64]) string {
		var vcd strings.Builder
		tr := NewTracer(&vcd)
		tr.AddProbe("sig", 64, func() string { return fmt.Sprintf("%b", sig.Read()) })
		k.AttachTracer(tr)
		if err := k.RunUntil(NS(200)); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s\nnow=%v stats=%+v", vcd.String(), k.Now(), k.Stats())
	}
	never := NewKernel()
	defer never.Shutdown()
	neverSig := snapModel(never, "m")
	if err := never.Run(NS(50)); err != nil {
		t.Fatal(err)
	}
	want := continuation(never, neverSig)

	k := NewKernel()
	defer k.Shutdown()
	sig := snapModel(k, "m")
	if err := k.Run(NS(50)); err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	if err := k.SnapshotInto(&cp); err != nil {
		t.Fatal(err)
	}
	// Run the kernel past the checkpoint first: the restore must rewind
	// all of it.
	if err := k.RunUntil(NS(130)); err != nil {
		t.Fatal(err)
	}
	if err := k.Restore(&cp); err != nil {
		t.Fatalf("Restore into the source kernel: %v", err)
	}
	if got := continuation(k, sig); got != want {
		t.Errorf("restored on the source kernel:\n%s\nnever restored:\n%s", got, want)
	}

	other := NewKernel()
	defer other.Shutdown()
	otherSig := snapModel(other, "m")
	if err := other.Restore(&cp); err != nil {
		t.Fatalf("Restore into a second kernel of the same elaboration: %v", err)
	}
	if got := continuation(other, otherSig); got != want {
		t.Errorf("restored on a second kernel:\n%s\nnever restored:\n%s", got, want)
	}

	foreign := NewKernel()
	defer foreign.Shutdown()
	snapModel(foreign, "n") // as many events and processes, other names
	if err := foreign.Restore(&cp); err == nil || !strings.Contains(err.Error(), "another elaboration") {
		t.Errorf("Restore into a kernel of another model: %v", err)
	}
	empty := NewKernel()
	defer empty.Shutdown()
	if err := empty.Restore(&cp); err == nil || !strings.Contains(err.Error(), "fewer") {
		t.Errorf("Restore into an empty kernel: %v", err)
	}
}
