package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// The root rule: a kernel snapshotted right after elaboration, its
// processes still waiting for their initial activation, is rewound to
// time zero by restoring that capture — whatever the kernel ran since,
// and whatever was elaborated onto it afterwards. A run from the restored
// root must be byte-identical to a run of a freshly built kernel.

const rootHorizon = 100 * Nanosecond

// rootState is rootModel's mutable state: the activation log and the
// pong count. Tests rewind it by hand, as a prototype's RestoreState
// would.
type rootState struct {
	log []string
	n   int
}

// rootModel elaborates a method-only model that exercises every queue a
// root capture must rewind: an initial activation, timed ping/pong
// notifications, a delta notification and an immediate one. It returns
// the ping event for stressors to disturb.
func rootModel(k *Kernel, st *rootState) *Event {
	ping := k.NewEvent("ping")
	pong := k.NewEvent("pong")
	fan := k.NewEvent("fan")
	now := k.NewEvent("now")
	record := func(what string) { st.log = append(st.log, what+"@"+k.Now().String()) }
	k.Method("start", func() {
		record("start")
		ping.Notify(NS(5))
		now.NotifyImmediate()
	})
	k.MethodNoInit("soon", func() { record("soon") }, now)
	k.MethodNoInit("echo", func() {
		record("echo")
		fan.Notify(0)
		pong.Notify(NS(3))
	}, ping)
	k.MethodNoInit("fan", func() { record("fan") }, fan)
	k.MethodNoInit("driver", func() {
		record("pong")
		if st.n++; st.n < 3 {
			ping.Notify(NS(5))
		}
	}, pong)
	return ping
}

// rootRun runs k to the horizon and renders what the model logged, with
// the final clock and activity counters.
func rootRun(t *testing.T, k *Kernel, st *rootState) string {
	t.Helper()
	if err := k.RunUntil(rootHorizon); err != nil {
		t.Fatal(err)
	}
	if st.n != 3 {
		t.Fatalf("model did not complete: %v", st.log)
	}
	return fmt.Sprintf("%s\nnow=%v stats=%+v", strings.Join(st.log, ","), k.Now(), k.Stats())
}

// freshRootRun is the reference: a fresh kernel, built and run once.
func freshRootRun(t *testing.T) string {
	t.Helper()
	k := NewKernel()
	defer k.Shutdown()
	var st rootState
	rootModel(k, &st)
	return rootRun(t, k, &st)
}

// rootKernel elaborates rootModel on a fresh kernel and captures its
// root.
func rootKernel(t *testing.T) (*Kernel, *rootState, *Event, *Checkpoint) {
	t.Helper()
	k := NewKernel()
	t.Cleanup(k.Shutdown)
	st := &rootState{}
	ping := rootModel(k, st)
	root := &Checkpoint{}
	if err := k.SnapshotInto(root); err != nil {
		t.Fatalf("Snapshot of a pristine kernel: %v", err)
	}
	return k, st, ping, root
}

// rewind restores the root into k and the model state to its build
// value.
func rewind(t *testing.T, k *Kernel, st *rootState, root *Checkpoint) {
	t.Helper()
	if err := k.Restore(root); err != nil {
		t.Fatal(err)
	}
	*st = rootState{log: st.log[:0]}
}

// TestRootRestoreReproducesFreshKernel: the core reuse guarantee — a
// kernel that ran to its horizon with a stressor elaborated onto it,
// restored to its root, runs exactly as a freshly built one: same log,
// same clock, same stats, every time.
func TestRootRestoreReproducesFreshKernel(t *testing.T) {
	want := freshRootRun(t)
	k, st, ping, root := rootKernel(t)
	if root.Now() != 0 || !k.Pending() {
		t.Fatalf("root captured at %v, pending %v: want time zero with initial activations queued", root.Now(), k.Pending())
	}
	for i := 0; i < 3; i++ {
		// A stressor elaborated after the root: it disturbs the model
		// every 7 ns and is retired by the next restore.
		ev := k.NewEvent("stressor.ev")
		k.Method("stressor", func() {
			st.n = 0
			ping.Notify(NS(1))
			ev.Notify(NS(7))
		}, ev)
		if err := k.RunUntil(rootHorizon); err != nil {
			t.Fatal(err)
		}
		rewind(t, k, st, root)
		if k.Now() != 0 || !k.Pending() || k.Stats() != root.stats {
			t.Fatalf("restore %d: now=%v pending=%v stats=%+v, want the root's", i, k.Now(), k.Pending(), k.Stats())
		}
		if got := rootRun(t, k, st); got != want {
			t.Fatalf("restore %d diverged from a fresh kernel:\ngot  %s\nwant %s", i, got, want)
		}
	}
}

// TestRootRestoreAfterStop: a kernel stopped mid-delta-cycle, with
// activity still queued, rewinds cleanly and the stopped flag does not
// leak into the next run.
func TestRootRestoreAfterStop(t *testing.T) {
	want := freshRootRun(t)
	k, st, ping, root := rootKernel(t)
	k.MethodNoInit("stopper", func() {
		ping.Notify(0)
		k.Stop()
	}, ping)
	if err := k.RunUntil(rootHorizon); err != nil {
		t.Fatal(err)
	}
	if !k.Stopped() || !k.Pending() {
		t.Fatalf("Stop did not take with activity queued: stopped=%v pending=%v", k.Stopped(), k.Pending())
	}
	rewind(t, k, st, root)
	if got := rootRun(t, k, st); got != want {
		t.Fatalf("restore after Stop diverged:\ngot  %s\nwant %s", got, want)
	}
	if k.Stopped() {
		t.Fatal("the stopped flag survived the restore")
	}
}

// TestRootRestoreAfterDeltaOverflow: a kernel that died in a zero-delay
// loop (ErrDeltaOverflow) comes back clean.
func TestRootRestoreAfterDeltaOverflow(t *testing.T) {
	want := freshRootRun(t)
	k, st, _, root := rootKernel(t)
	k.SetMaxDeltas(100)
	loop := k.NewEvent("loop")
	k.MethodNoInit("spin", func() { loop.Notify(0) }, loop)
	loop.Notify(NS(10))
	if err := k.RunUntil(rootHorizon); !errors.Is(err, ErrDeltaOverflow) {
		t.Fatalf("want ErrDeltaOverflow, got %v", err)
	}
	rewind(t, k, st, root)
	if got := rootRun(t, k, st); got != want {
		t.Fatalf("restore after a delta overflow diverged:\ngot  %s\nwant %s", got, want)
	}
}

// TestRootRestoreDetachesTracers: a tracer observes only the forward run
// it was attached for; the restore drops it, so the next run neither
// samples its probes nor grows its VCD.
func TestRootRestoreDetachesTracers(t *testing.T) {
	k, st, _, root := rootKernel(t)
	var vcd strings.Builder
	tr := NewTracer(&vcd)
	tr.AddProbe("pongs", 8, func() string { return fmt.Sprintf("%b", st.n) })
	k.AttachTracer(tr)
	rootRun(t, k, st)
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	before := vcd.Len()
	if before == 0 {
		t.Fatal("tracer recorded nothing")
	}
	rewind(t, k, st, root)
	rootRun(t, k, st)
	if vcd.Len() != before {
		t.Fatalf("detached tracer still sampled after the restore: %d -> %d bytes", before, vcd.Len())
	}
}

// TestRootRestoreRebasesInstrument: the attached Instrument survives the
// restore and its published watermark is rebased to the root's counters
// — the registry after two root-separated identical runs holds exactly
// twice one run's work.
func TestRootRestoreRebasesInstrument(t *testing.T) {
	counterValue := func(reg *obs.Registry, name string) float64 {
		for _, m := range reg.Snapshot() {
			if m.Name == name {
				return m.Value
			}
		}
		return -1
	}

	one := obs.NewRegistry()
	k1 := NewKernel()
	k1.SetInstrument(&Instrument{Metrics: one, TID: 1})
	var st1 rootState
	rootModel(k1, &st1)
	rootRun(t, k1, &st1)
	k1.Shutdown()
	single := counterValue(one, "sim.delta_cycles")
	if single <= 0 {
		t.Fatalf("no delta cycle count in single-run registry: %v", single)
	}

	reg := obs.NewRegistry()
	k, st, _, root := rootKernel(t)
	k.SetInstrument(&Instrument{Metrics: reg, TID: 1})
	rootRun(t, k, st)
	rewind(t, k, st, root)
	rootRun(t, k, st)
	if double := counterValue(reg, "sim.delta_cycles"); double != 2*single {
		// An instrument whose watermark is not rebased would compute
		// underflowing deltas against the larger pre-restore totals.
		t.Fatalf("instrument deltas wrong across the restore: single=%v double=%v", single, double)
	}
}

// TestRootRestoreNoStaleTimedEntries: a timed notification pending on an
// event elaborated after the root never fires after the restore — not on
// its own, and not through the recycled event a later elaboration pops.
func TestRootRestoreNoStaleTimedEntries(t *testing.T) {
	k, st, _, root := rootKernel(t)
	late := k.NewEvent("late")
	fired := false
	k.MethodNoInit("boom", func() { fired = true }, late)
	late.Notify(NS(50))
	if err := k.RunUntil(NS(10)); err != nil {
		t.Fatal(err)
	}
	rewind(t, k, st, root)
	again := k.NewEvent("again") // the recycled late event
	k.MethodNoInit("again", func() { fired = true }, again)
	rootRun(t, k, st)
	if fired {
		t.Fatal("stale timed notification fired after the restore")
	}
}

// TestRootRestoreRefusedWhileRunning documents the contract: a process
// cannot rewind the kernel it runs on.
func TestRootRestoreRefusedWhileRunning(t *testing.T) {
	k, _, ping, root := rootKernel(t)
	var rerr error
	k.MethodNoInit("rewinder", func() { rerr = k.Restore(root) }, ping)
	if err := k.RunUntil(rootHorizon); err != nil {
		t.Fatal(err)
	}
	if rerr == nil || !strings.Contains(rerr.Error(), "running") {
		t.Fatalf("Restore during Run: %v, want a 'running' refusal", rerr)
	}
}

// TestNextEventTimeDuringEvaluate: querying the next event time from
// model code (inEvaluate) must be read-only — it skips a stale heap
// entry without popping it, and the later idle-time query compacts.
func TestNextEventTimeDuringEvaluate(t *testing.T) {
	k := NewKernel()
	victim := k.NewEvent("victim")
	probe := k.NewEvent("probe")
	var seen Time
	var heapLenDuring int
	k.MethodNoInit("observer", func() {
		// victim's 50ns entry is stale by now (displaced by the 10ns
		// notification below); the live minimum is 10ns.
		seen = k.NextEventTime()
		heapLenDuring = k.timed.Len()
	}, probe)
	k.MethodNoInit("sink", func() {}, victim)

	victim.Notify(NS(50)) // becomes stale
	victim.Notify(NS(10)) // displaces it
	probe.NotifyImmediate()
	lenBefore := k.timed.Len() // 2 entries: stale@50, live@10
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if seen != NS(10) {
		t.Fatalf("NextEventTime during evaluate = %v, want 10ns", seen)
	}
	if heapLenDuring != lenBefore {
		t.Fatalf("in-run NextEventTime mutated the heap: %d -> %d entries", lenBefore, heapLenDuring)
	}
	// Drain the live notification, leaving only the stale 50ns entry,
	// then verify the idle-time query compacts it away.
	if err := k.Run(NS(20)); err != nil {
		t.Fatal(err)
	}
	if got := k.NextEventTime(); got != TimeMax {
		t.Fatalf("idle NextEventTime = %v, want TimeMax", got)
	}
	if k.timed.Len() != 0 {
		t.Fatalf("idle NextEventTime left %d stale entries", k.timed.Len())
	}
}

// TestSteadyStateTimedSchedulingAllocs pins the allocation-lean event
// queue: once a kernel has warmed up, a self-retriggering timed event
// loop runs with zero allocations per Run.
func TestSteadyStateTimedSchedulingAllocs(t *testing.T) {
	k := NewKernel()
	tick := k.NewEvent("tick")
	count := 0
	k.MethodNoInit("ticker", func() {
		count++
		tick.Notify(NS(10))
	}, tick)
	tick.Notify(NS(10))
	// Warm up: first runs grow the queues to their high-water mark.
	if err := k.Run(US(1)); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := k.Run(NS(100)); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state timed scheduling allocates %.1f allocs/run, want 0", avg)
	}
	if count == 0 {
		t.Fatal("ticker never ran")
	}
}
