package caps

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stressor"
	"repro/internal/stressor/stressortest"
)

// transientUniverse is a universe where a meaningful fraction of runs
// re-converge with the golden trajectory after the fault window closes:
// every E8 descriptor plus a 2 ms transient variant of each.
func transientUniverse(t *testing.T, r *Runner) []fault.Scenario {
	t.Helper()
	return fault.Singles(withTransients(r.Universe(sim.MS(5))))
}

// TestTreeEarlyExitMatchesPlain is the non-vacuity guard behind the
// determinism matrix: a tree campaign over the transient
// universe must (a) classify byte-identically to the plain engine and
// (b) actually early-exit some runs and fork from retained tree nodes
// — otherwise the byte-identity cells of the matrix would pass without
// ever exercising the new machinery.
func TestTreeEarlyExitMatchesPlain(t *testing.T) {
	runner, err := NewRunner(Protected(), NormalDriving(), sim.MS(30))
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	scenarios := transientUniverse(t, runner)

	plain, err := (&stressor.Campaign{Name: "caps-plain", Run: runner.RunScenario}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	tree, err := (&stressor.Campaign{
		Name: "caps-tree", Checkpointer: runner, Metrics: reg,
	}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tree.Outcomes, plain.Outcomes) {
		t.Errorf("tree outcomes diverge from plain engine:\ngot:  %+v\nwant: %+v", tree.Outcomes, plain.Outcomes)
	}

	lbl := obs.L("campaign", "caps-tree")
	exits := reg.Counter("campaign.early_exits", lbl).Value()
	hits := reg.Counter("campaign.tree_hits", lbl).Value()
	extends := reg.Counter("campaign.tree_extends", lbl).Value()
	saved := reg.Counter("campaign.early_exit_saved_sim_ns", lbl).Value()
	if exits == 0 {
		t.Error("no run early-exited — transient universe should re-converge")
	}
	if hits+extends == 0 {
		t.Error("no run forked from a retained tree node")
	}
	if exits > 0 && saved == 0 {
		t.Error("early exits recorded but no saved simulated time")
	}
	t.Logf("early_exits=%d tree_hits=%d tree_extends=%d saved_sim_ns=%d", exits, hits, extends, saved)
}

// TestSnapshotCapturePooled pins the pooled snapshot-capture path of
// checkpoint sessions: once warm, re-capturing kernel and model state
// into the held buffers allocates nothing.
func TestSnapshotCapturePooled(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	sys, _ := Build(k, Protected(), NormalDriving())
	if err := k.Run(sim.MS(10)); err != nil {
		t.Fatal(err)
	}
	var cp sim.Checkpoint
	if err := k.SnapshotInto(&cp); err != nil {
		t.Fatal(err)
	}
	mst := sys.SnapshotState(nil)
	allocs := testing.AllocsPerRun(50, func() {
		if err := k.SnapshotInto(&cp); err != nil {
			panic(err)
		}
		mst = sys.SnapshotState(mst)
	})
	if allocs != 0 {
		t.Errorf("warm snapshot capture allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestTreeEstablishSteadyStateAllocs pins the tree session's steady
// state: once nodes for a set of forks are retained, re-establishing
// those forks (restore from a node, run past it, restore again) is
// allocation-free.
func TestTreeEstablishSteadyStateAllocs(t *testing.T) {
	runner, err := NewRunner(Protected(), NormalDriving(), sim.MS(30))
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	sess := runner.NewTreeSession(stressor.TreeConfig{})
	defer sess.Close()
	u := runner.Universe(sim.MS(5))
	sc := fault.Single(u[0])
	// Warm: build nodes at two forks, then run each once more so every
	// pooled buffer has reached its steady-state capacity.
	for i := 0; i < 2; i++ {
		sess.Run(sc, sim.MS(5))
		sess.Run(sc, sim.MS(7))
	}
	tree := sess.(interface{ Establish(sim.Time) error })
	allocs := testing.AllocsPerRun(20, func() {
		if err := tree.Establish(sim.MS(5)); err != nil {
			panic(err)
		}
		if err := tree.Establish(sim.MS(7)); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state tree establish allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestForkWindowCollapse is the gate that fails when the fork-window
// collapse rots (DESIGN §14): the E8 universe at 40 instants 247 µs
// apart, up to four to an idle window of the golden run. The 40 instants
// from 1 ms to 10.633 ms fork at 12 places, and a fusion period is two
// windows: the cycle at k ms to its frame's completion 148 µs later, and
// from there to the next cycle. The twelve are the cycle at 1 ms itself
// (an activity instant, forked from time zero and never keyed), the ten
// long windows of periods 1 to 10, and the short window of period 10,
// which 10.139 ms lands in. Each (window, descriptor) pair is simulated
// once, on one worker and on several alike.
func TestForkWindowCollapse(t *testing.T) {
	runner, err := NewRunner(Protected(), NormalDriving(), sim.MS(30))
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	stressortest.ForkWindowCollapse(t, runner, denseInstants(), 12)
}

// TestShardedForkWindowCollapse runs TestForkWindowCollapse's universe
// as four shards. Each is a contiguous slice of it in injection-time
// order — ten instants — so the only window simulated twice is the one
// a cut falls in: 3.47, 5.94 and 8.41 ms each sit inside a long window,
// and the shards simulate 252 + 3×21 = 315 runs, on two workers as on
// one. Cut round-robin, every shard meets every window and the four
// simulate all 840.
func TestShardedForkWindowCollapse(t *testing.T) {
	runner, err := NewRunner(Protected(), NormalDriving(), sim.MS(30))
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	stressortest.ShardedForkWindowCollapse(t, runner, denseInstants(), 4)
}

// TestForkWindowRecallUnderStopOnFirst: a StopOnFirst list runs in index
// order, so on TestForkWindowCollapse's instant-major universe a session
// meets each window's 21 descriptors once per instant, interleaved, not a
// family back to back. With the failing scenarios dropped, so the one
// worker runs all 800, its memo must recall every run of a (window,
// descriptor) pair after the first — 560, as a per-window map did — and
// every outcome must be a memo-free one-shot run's.
func TestForkWindowRecallUnderStopOnFirst(t *testing.T) {
	runner, err := NewRunner(Protected(), NormalDriving(), sim.MS(30))
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	var scenarios []fault.Scenario
	var want []fault.Outcome
	for _, at := range denseInstants() {
		for _, d := range runner.Universe(at) {
			sc := fault.Single(d)
			sc.ID = fmt.Sprintf("%d:%s", len(scenarios), sc.ID)
			if out := runner.RunScenario(sc); !out.Class.IsFailure() {
				scenarios, want = append(scenarios, sc), append(want, out)
			}
		}
	}
	reg := obs.NewRegistry()
	res, err := (&stressor.Campaign{Name: "windows", Workers: 1, StopOnFirst: true, Metrics: reg, Checkpointer: runner}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Outcomes, want) {
		t.Errorf("StopOnFirst outcomes diverge from one-shot runs:\ngot:  %+v\nwant: %+v", res.Outcomes, want)
	}
	hits := reg.Counter("campaign.fork_window_hits", obs.L("campaign", "windows")).Value()
	if len(scenarios) != 800 || hits != 560 {
		t.Errorf("recalled %d of %d scenarios, want 560 of 800", hits, len(scenarios))
	}
}

// denseInstants are the 40 injection instants, 247 µs apart from 1 ms,
// of the fork-window gates.
func denseInstants() []sim.Time {
	var instants []sim.Time
	for i := 0; i < 40; i++ {
		instants = append(instants, sim.MS(1)+sim.Time(i)*sim.US(247))
	}
	return instants
}

// TestCrossSlotRestore: the node one session's slot publishes restores
// into another session's slot as that slot stands, in both directions.
// Session b first runs a 2 ms fault, publishing the 2 ms node from its
// slot; a then extends from that node to 5 ms in its own slot and
// publishes there; b runs on from a's node. Run to the horizon, the two
// slots end every permanent and transient fault of the 5 ms universe
// with the same model StateHash and observation.
func TestCrossSlotRestore(t *testing.T) {
	runner, err := NewRunner(Protected(), NormalDriving(), sim.MS(30))
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	m := &model{cfg: Protected(), world: NormalDriving()}
	off := fault.Singles(runner.Universe(sim.MS(2)))
	for i, sc := range transientUniverse(t, runner) {
		a, b := runner.NewTreeSession(stressor.TreeConfig{}), runner.NewTreeSession(stressor.TreeConfig{})
		b.Run(off[i%len(off)], sim.MS(2))
		var ends [2]string
		for j, sess := range []stressor.CheckpointSession{a, b} {
			sess.Run(sc, sim.MS(5))
			s := sess.(interface{ Prototype() sim.State }).Prototype().(*System)
			h := sim.NewStateHash()
			s.HashState(&h)
			ends[j] = fmt.Sprintf("%#x %+v", h.Sum(), m.Observe(s))
		}
		a.Close()
		b.Close()
		if ends[0] != ends[1] {
			t.Errorf("%s: slot a ends at %s, slot b at %s", sc.ID, ends[0], ends[1])
		}
	}
}

// TestRootEqualsBuild: a pooled slot runs every scenario of the E8
// universe and its transients, the three that fork at zero and one
// injected at the horizon, as a fresh build does (stressortest.CheckRoot).
func TestRootEqualsBuild(t *testing.T) {
	naive, err := NewRunner(Protected(), NormalDriving(), sim.MS(30))
	if err != nil {
		t.Fatal(err)
	}
	defer naive.Close()
	naive.ReuseOff = true
	r, err := NewRunner(Protected(), NormalDriving(), sim.MS(30))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stressortest.CheckRoot(t, naive.RunScenarioSigned, r.RunScenarioSigned, transientUniverse(t, r), sim.MS(30))
}
