package ecu

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stressor"
	"repro/internal/stressor/stressortest"
)

func TestRunnerGolden(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	g := r.Golden()
	out := OutputsOf(g)
	if out.Halted != [2]bool{true, true} {
		t.Fatalf("golden cores did not halt: %+v", out)
	}
	if out.Acc[0] != out.Acc[1] {
		t.Fatalf("golden cores disagree: %+v", out)
	}
	if out.Acc[0] == 0 {
		t.Fatalf("golden checksum is zero — workload not running")
	}
	if g.Detected || g.LatentState {
		t.Fatalf("golden run not clean: %+v", g)
	}
}

func TestRunnerGoldenRepeatsOnReusedSlot(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// No effect on a rerun of the fault-free scenario: the outputs are the
	// golden ones, nothing fired, and the register files and table image
	// equal the golden run's (Observe's latent-state comparison).
	for i := 0; i < 3; i++ {
		if out := r.RunScenario(fault.Scenario{ID: fmt.Sprintf("g%d", i)}); out.Class != fault.NoEffect {
			t.Fatalf("rerun %d drifted: %s %q", i, out.Class, out.Detail)
		}
	}
}

func TestRunnerDetectsRegisterUpset(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Flip a live accumulator bit in the primary only: the store
	// streams must diverge and lockstep must catch it.
	out := r.RunScenario(fault.Single(fault.Descriptor{
		Name: "seu-r3", Model: fault.BitFlip, Class: fault.Permanent,
		Target: "ecu.primary.regs", Address: 3, Bit: 7, Start: 0,
	}))
	if out.Class != fault.DetectedSafe {
		t.Fatalf("register upset not detected: %v (%s)", out.Class, out.Detail)
	}
}

func TestRunnerECCCorrectsTableUpset(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Flip a data bit in a table cell before it is read: ECC corrects
	// it on the fly, so the outputs match golden but the detection
	// counter trips.
	out := r.RunScenario(fault.Single(fault.Descriptor{
		Name: "seu-table", Model: fault.BitFlip, Class: fault.Permanent,
		Target: "ecu.primary.mem", Address: runnerTableBase + 0x40, Bit: 5, Start: 0,
	}))
	if out.Class != fault.DetectedSafe {
		t.Fatalf("table upset not ECC-detected: %v (%s)", out.Class, out.Detail)
	}
}

// TestShippedUniverseHash pins the fingerprints of the shipped SEU
// universe to the literals every journal of it carries.
func TestShippedUniverseHash(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for at, want := range map[sim.Time]string{0: "9e1cb3bcf9c61a7c", sim.US(2): "ea62c7755fb909e8"} {
		if got := stressor.UniverseHash(fault.Singles(r.Universe(at))); got != want {
			t.Errorf("universe at %v hashes to %s, journals carry %s", at, got, want)
		}
	}
}

// TestRunnerDeterminismMatrix asserts byte-identical campaign results
// across {rebuild, reuse} × {sequential, parallel} × {unsharded,
// 2-shard merged} × {fresh, resumed} — the shared cross-mode matrix on
// the second prototype family.
func TestRunnerDeterminismMatrix(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	scs := fault.Singles(r.Universe(0))
	r.Close()
	stressortest.Run(t, stressortest.Config{
		Name:      "ecu-seu",
		Scenarios: scs,
		NewRun: func(t *testing.T, reuseOff bool) (stressortest.Prototype, func()) {
			r, err := NewRunner(DefaultRunnerConfig())
			if err != nil {
				t.Fatal(err)
			}
			r.ReuseOff = reuseOff
			return r, r.Close
		},
		Hooked: hooked,
		Shards: []int{1, 2},
	})
}

// hooked is the matrix's hooked one-shot call: RunScenarioWith with a
// hook that calls hook and keeps nothing.
func hooked(p stressortest.Prototype, sc fault.Scenario, hook func()) fault.Outcome {
	return p.(*Runner).RunScenarioWith(sc, func(*ecuSlot) { hook() })
}

// TestRunnerCheckpointMatrix reruns the matrix with a non-zero
// injection time: Universe(0) scenarios all fork at time zero (no
// prefix to amortize), so the matrix above only proves the root.
// Injecting at 2µs makes every
// scenario fork-eligible and drives the ECU checkpoint sessions —
// snapshot of mid-run cores, restore, re-injection — through the full
// {seq,par} × {sharded} × {resumed} grid.
func TestRunnerCheckpointMatrix(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	scs := fault.Singles(r.Universe(sim.US(2)))
	r.Close()
	stressortest.Run(t, stressortest.Config{
		Name:      "ecu-seu-cp",
		Scenarios: scs,
		NewRun: func(t *testing.T, reuseOff bool) (stressortest.Prototype, func()) {
			r, err := NewRunner(DefaultRunnerConfig())
			if err != nil {
				t.Fatal(err)
			}
			r.ReuseOff = reuseOff
			return r, r.Close
		},
		Hooked:  hooked,
		Workers: []int{0, 2},
		Shards:  []int{1, 2},
	})
}

// TestRunnerSEUDetections guards the matrix against vacuity on the
// mechanism side: the SEU universe must actually trip detections.
func TestRunnerSEUDetections(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := (&stressor.Campaign{Name: "ecu-seu", Checkpointer: r}).Execute(fault.Singles(r.Universe(0)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally[fault.DetectedSafe] == 0 {
		t.Fatalf("no detections in SEU universe: %v", res.Tally)
	}
}

// TestRunnerAdaptiveDeterminismMatrix drives the adaptive campaign
// loop against the ECU prototype: the Novelty strategy mutates on
// real snapshot-state signatures, and every {workers} × {rebuild,
// reuse, tree, tree again warm} × {fresh, resumed} cell must match the
// sequential reference, signatures included. The
// universe injects at zero, so every run forks from the root.
func TestRunnerAdaptiveDeterminismMatrix(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	universe := r.Universe(0)
	r.Close()
	stressortest.RunAdaptive(t, stressortest.AdaptiveConfig{
		Name:     "ecu-seu-adaptive",
		Universe: universe,
		Budget:   16,
		NewRun: func(t *testing.T, reuseOff bool) (stressortest.Prototype, func()) {
			r, err := NewRunner(DefaultRunnerConfig())
			if err != nil {
				t.Fatal(err)
			}
			r.ReuseOff = reuseOff
			return r, r.Close
		},
	})
}

// TestForkWindowCollapse: the golden ECU run is active at 13 instants —
// the cores' quantum syncs roughly every 500 ns and the stopper's
// microsecond polls — halts at 4 µs and is idle from there to the
// horizon. The sweep forks at four places: the window (1020 ns, 1530 ns)
// holding 1.1, 1.3 and 1.5 µs; the window (2040 ns, 2550 ns) holding 2.2
// and 2.4 µs; the halt instant itself (an activity instant, forked from
// the poll before it and never keyed); and the one long window after the
// halt, which holds every instant from 10 µs to 150 µs.
func TestForkWindowCollapse(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	instants := []sim.Time{sim.NS(1100), sim.NS(1300), sim.NS(1500), sim.NS(2200), sim.NS(2400), sim.US(4)}
	for at := sim.US(10); at <= sim.US(150); at += sim.US(10) {
		instants = append(instants, at)
	}
	stressortest.ForkWindowCollapse(t, r, instants, 4)
}

// TestInstrumentedCampaignMatchesPlain: Instrument attaches the kernel
// instrument to every kernel the host runs — every pooled slot, whatever
// session holds it — so an instrumented ECU campaign
// publishes sim.* counters, and its Result is the uninstrumented one.
func TestInstrumentedCampaignMatchesPlain(t *testing.T) {
	run := func(reg *obs.Registry) *stressor.Result {
		r, err := NewRunner(DefaultRunnerConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		r.Instrument(reg, nil)
		// Universe(0) forks at zero, from the root.
		scs := fault.Singles(append(r.Universe(0), r.Universe(sim.US(2))...))
		res, err := (&stressor.Campaign{
			Name: "ecu-instrumented", Workers: 2,
			Checkpointer: r,
		}).Execute(scs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(nil)
	reg := obs.NewRegistry()
	if got := run(reg); !reflect.DeepEqual(got, want) {
		t.Errorf("instrumented result diverges:\ngot:  %+v\nwant: %+v", got.Outcomes, want.Outcomes)
	}
	for _, name := range []string{"sim.activations", "sim.delta_cycles", "sim.time_steps"} {
		if reg.Counter(name).Value() == 0 {
			t.Errorf("%s = 0 after an instrumented campaign", name)
		}
	}
}

// TestRootEqualsBuild: a pooled slot runs every scenario of the SEU
// universe, injected at three instants, the three that fork at zero and
// one injected at the horizon, as a fresh build does (stressortest.CheckRoot).
func TestRootEqualsBuild(t *testing.T) {
	naive, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer naive.Close()
	naive.ReuseOff = true
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var ds []fault.Descriptor
	for _, at := range []sim.Time{sim.NS(700), sim.US(30), sim.US(90)} {
		ds = append(ds, r.Universe(at)...)
	}
	stressortest.CheckRoot(t, naive.RunScenarioSigned, r.RunScenarioSigned, fault.Singles(ds), DefaultRunnerConfig().Horizon)
}

// TestOutputsOfReadsBackOutputs: the outputs value holds both words and
// both halt bits, OutputsOf reads each back, and a value equal to golden's
// is golden's own string.
func TestOutputsOfReadsBackOutputs(t *testing.T) {
	m := &model{}
	for _, want := range []Outputs{
		{},
		{Acc: [2]uint32{1, 0xf}, Halted: [2]bool{true, false}},
		{Acc: [2]uint32{0x800, 0xdeadbeef}, Halted: [2]bool{false, true}},
		{Acc: [2]uint32{0xffffffff, 0x10}, Halted: [2]bool{true, true}},
	} {
		out := m.outputs(want.Acc[0], want.Acc[1], want.Halted[0], want.Halted[1])
		if got := OutputsOf(analysis.Observation{Outputs: out}); got != want {
			t.Errorf("OutputsOf(%q) = %+v, want %+v", out, got, want)
		}
	}
	m.golden = m.outputs(7, 7, true, true)
	if out := m.outputs(7, 7, true, true); unsafe.StringData(out) != unsafe.StringData(m.golden) {
		t.Error("outputs equal to golden's are not golden's string")
	}
}

// TestWarmECURunAllocatesNothing: a warm one-shot run of an SEU — a tree
// session forked off the host's nodes, the cores run as far as the fault
// lets them, classified — allocates nothing: its outputs are golden's
// string when they equal golden's, its detections a shared list, its
// detail interned, and a core's bus accesses and step delay live in its
// socket and runner. Two kinds of run allocate what only they need: an
// SDC its outputs, one string, and a run the lockstep comparator flags
// its outputs and the comparator's divergence detail, which the state
// digest folds: Sprintf's string and its boxed operands, 7 objects, up to
// 10 under the race detector, which makes fmt's printer pool miss at
// random; its budget is loose for that. The outputs map, its rendered
// words and the detail put a run at 7 or 8 objects more, and the payload
// and delay of each instruction's bus accesses a run of the whole program
// past 2 000.
func TestWarmECURunAllocatesNothing(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	seen := map[string]int{}
	for _, d := range append(r.Universe(sim.NS(700)), r.Universe(sim.US(30))...) {
		sc := fault.Single(d)
		out := r.RunScenario(sc)
		kind, budget := "silent or other mechanism", 0.0
		switch {
		case out.Class == fault.SDC:
			kind, budget = "sdc", 1
		case strings.Contains(out.Detail, "lockstep"):
			kind, budget = "lockstep", 16
		}
		seen[kind]++
		if avg := testing.AllocsPerRun(5, func() { out = r.RunScenario(sc) }); avg > budget {
			t.Errorf("a warm run of %s (%v, %s) allocates %v objects, budget %v", sc.ID, out.Class, out.Detail, avg, budget)
		}
	}
	t.Logf("runs: %v", seen)
	if len(seen) != 3 {
		t.Errorf("runs %v: the universe no longer has each kind of run, the pin would be vacuous there", seen)
	}
}
