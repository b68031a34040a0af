package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// Kernel conformance vectors (ROADMAP 6c): what a run does, written down,
// and the ways of driving the kernel that must not change it. Fork
// windows (the stressor tree session's window leg) lean on both
// properties below: they ask an idle kernel for its next event, and they
// run in legs that stop one instant short of it.

// confModel is snapModel with a written trace: the ticker re-arms itself
// every 7 ns, and on every third nanosecond arms the kicker, which pulls
// the pending tick forward — leaving the displaced later tick as a stale
// entry in the timed queue. Each activation appends "time/process".
func confModel(k *Kernel, trace *[]string) {
	tick := k.NewEvent("tick")
	kick := k.NewEvent("kick")
	k.MethodNoInit("ticker", func() {
		*trace = append(*trace, fmt.Sprintf("%d/ticker", uint64(k.Now()/Nanosecond)))
		tick.Notify(NS(7))
		if k.Now()%NS(3) == 0 {
			kick.Notify(NS(2))
		}
	}, tick)
	k.MethodNoInit("kicker", func() {
		*trace = append(*trace, fmt.Sprintf("%d/kicker", uint64(k.Now()/Nanosecond)))
		tick.Notify(NS(1))
	}, kick)
	tick.Notify(NS(5))
}

// confTrace is confModel's run to 40 ns.
var confTrace = []string{
	"5/ticker", "12/ticker", "14/kicker", "15/ticker", "17/kicker", "18/ticker",
	"20/kicker", "21/ticker", "23/kicker", "24/ticker", "26/kicker", "27/ticker",
	"29/kicker", "30/ticker", "32/kicker", "33/ticker", "35/kicker", "36/ticker",
	"38/kicker", "39/ticker",
}

func schedulerHash(k *Kernel) uint64 {
	h := NewStateHash()
	ne, np := k.Elaborated()
	k.HashScheduler(&h, ne, np)
	return h.Sum()
}

// TestLeggedRunEqualsOneRun: a run stopped at every instant the kernel
// is active at — RunUntil(NextEventTime()) over and over — and a run
// stopped one instant short of each are the run RunUntil(horizon) makes
// in one piece: the same written-down trace, counters, clock and
// scheduler state.
func TestLeggedRunEqualsOneRun(t *testing.T) {
	const horizon = 40 * Nanosecond
	run := func(leg func(k *Kernel) Time) ([]string, Stats, uint64) {
		k := NewKernel()
		defer k.Shutdown()
		var trace []string
		confModel(k, &trace)
		for leg != nil {
			next := leg(k)
			if next > horizon {
				break
			}
			if err := k.RunUntil(next); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
		if k.Now() != horizon {
			t.Errorf("the run ends at %s, want %s", k.Now(), horizon)
		}
		return trace, k.Stats(), schedulerHash(k)
	}
	trace, stats, hash := run(nil)
	if !reflect.DeepEqual(trace, confTrace) {
		t.Errorf("one RunUntil(%s) activates\n%v, written down is\n%v", horizon, trace, confTrace)
	}
	for name, leg := range map[string]func(*Kernel) Time{
		"at every activity instant":  func(k *Kernel) Time { return k.NextEventTime() },
		"one instant short of every": func(k *Kernel) Time { return max(k.NextEventTime()-1, k.Now()+1) },
	} {
		lt, ls, lh := run(leg)
		if !reflect.DeepEqual(lt, trace) {
			t.Errorf("legged %s: activates\n%v, one run\n%v", name, lt, trace)
		}
		if ls != stats {
			t.Errorf("legged %s: counters %+v, one run %+v", name, ls, stats)
		}
		if lh != hash {
			t.Errorf("legged %s: scheduler hash %#x, one run %#x", name, lh, hash)
		}
	}
}

// TestIdleNextEventTimeIsPure: between runs NextEventTime pops the stale
// entries it finds at the head of the timed queue. That must be
// invisible: a kernel asked at every stop hashes, snapshots, restores and
// runs on exactly as one never asked.
func TestIdleNextEventTimeIsPure(t *testing.T) {
	stops := []Time{NS(13), NS(18), NS(21), NS(33)}
	const horizon = 40 * Nanosecond
	type record struct {
		hashes        []uint64
		trace, replay []string
		stats         Stats
	}
	popped := 0
	drive := func(ask bool) record {
		k := NewKernel()
		defer k.Shutdown()
		var r record
		confModel(k, &r.trace)
		var cp Checkpoint
		var cpLen int
		for i, stop := range stops {
			if err := k.RunUntil(stop); err != nil {
				t.Fatal(err)
			}
			if ask {
				before := k.timed.Len()
				k.NextEventTime()
				popped += before - k.timed.Len()
			}
			r.hashes = append(r.hashes, schedulerHash(k))
			if i == 1 {
				if err := k.SnapshotInto(&cp); err != nil {
					t.Fatal(err)
				}
				cpLen = len(r.trace)
			}
		}
		if err := k.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
		r.stats = k.Stats()
		// Back to the second stop, and on to the horizon in one piece.
		first := append([]string(nil), r.trace...)
		r.trace = r.trace[:cpLen]
		if err := k.Restore(&cp); err != nil {
			t.Fatal(err)
		}
		if err := k.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
		r.replay, r.trace = r.trace, first
		return r
	}
	never, asked := drive(false), drive(true)
	if popped == 0 {
		t.Fatal("no stop found a stale entry at the head of the timed queue: the test pins nothing")
	}
	if !reflect.DeepEqual(asked, never) {
		t.Errorf("a kernel asked for its next event at every stop diverges from one never asked\nasked: %+v\nnever: %+v", asked, never)
	}
	if !reflect.DeepEqual(never.trace, confTrace) || !reflect.DeepEqual(never.replay, confTrace) {
		t.Errorf("the stopped run and its restored replay activate\n%v and\n%v, written down is\n%v", never.trace, never.replay, confTrace)
	}
}

// TestStatsCountNotificationsOfEveryKind: Stats.Notifications rises by
// one for every notification asked for — timed, delta, immediate, a
// signal's value change, and one discarded for a stronger pending one —
// and by nothing else: it is what lets a caller say "this stretch of the
// run scheduled nothing".
func TestStatsCountNotificationsOfEveryKind(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	ev := k.NewEvent("ev")
	sig := NewSignal(k, "sig", 0)
	sig.Changed()
	count := func() uint64 { return k.Stats().Notifications }
	step := func(what string, want uint64, do func()) {
		t.Helper()
		before := count()
		do()
		if got := count() - before; got != want {
			t.Errorf("%s: Notifications rose by %d, want %d", what, got, want)
		}
	}
	step("timed", 1, func() { ev.Notify(NS(5)) })
	step("later timed, discarded", 1, func() { ev.Notify(NS(9)) })
	step("delta", 1, func() { ev.Notify(0) })
	step("immediate outside evaluate (a delta)", 1, func() { ev.NotifyImmediate() })
	step("cancel", 0, func() { ev.Cancel() })
	step("force on a watched signal", 1, func() { sig.Force(1) })
	k.MethodNoInit("writer", func() { sig.Write(2); ev.NotifyImmediate() }, ev)
	ev.Notify(NS(1))
	// The run: writer's immediate notification, then sig's update — forced,
	// so its value change tells nobody.
	step("run", 1, func() {
		if err := k.RunUntil(NS(2)); err != nil {
			t.Fatal(err)
		}
	})
	step("idle queries", 0, func() { k.NextEventTime(); k.Pending(); schedulerHash(k) })
}
