package caps

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// permanentSweep is the permanent single-fault universe at each of the
// given instants — the shape of the benchmark's caps-perm-sweep, smaller.
// Descriptor names carry the instant so scenario IDs are unique.
func permanentSweep(r *Runner, at ...sim.Time) []fault.Scenario {
	var out []fault.Scenario
	for _, t := range at {
		for _, d := range r.Universe(t) {
			d.Name += fmt.Sprintf("@%v", t)
			out = append(out, fault.Single(d))
		}
	}
	return out
}

// TestWarmSessionRunAllocatesPerRunOnly: a warm tree-session run of a
// permanent sensor fault — 75 fusion cycles with a disturbed sensor, a
// frame sent, arbitrated and delivered in each, a trace hop recorded in
// each — allocates nothing: not per cycle, and not for the observation it
// is classified from, whose outputs equal golden's and are golden's
// string. An outputs map and its severity string put it at 3. Before
// frames were held by value and the trace site names built once, one
// object per cycle more put it past 80; a stressor process named after its
// scenario and the severities rendered as text put it at 4.
func TestWarmSessionRunAllocatesPerRunOnly(t *testing.T) {
	r, err := NewRunner(Protected(), NormalDriving(), sim.MS(80))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var sc fault.Scenario
	for _, d := range r.Universe(sim.MS(5)) {
		if d.Target == "caps.accel0.harness" && d.Model == fault.Open {
			sc = fault.Single(d)
		}
	}
	fork, ok := r.ForkTime(sc)
	if !ok {
		t.Fatalf("no forkable open-harness fault in the universe (got %+v)", sc)
	}
	sess := r.NewTreeSession(stressor.TreeConfig{})
	defer sess.Close()
	var out fault.Outcome
	run := func() { out = sess.Run(sc, fork) }
	run()
	const budget = 0
	avg := testing.AllocsPerRun(20, run)
	t.Logf("%v allocations per warm session run", avg)
	if avg > budget {
		t.Errorf("a warm session run allocates %v objects, budget %d", avg, budget)
	}
	if want := r.RunScenario(sc); out.Class != want.Class || out.Detail != want.Detail {
		t.Errorf("session outcome %v (%s), plain path %v (%s)", out.Class, out.Detail, want.Class, want.Detail)
	}
}

// TestWarmSignedRunAllocatesNoTrace: a warm signed run — a one-shot tree
// session, what every adaptive proposal of a campaign without a
// Checkpointer costs — allocates nothing: no copy of the propagation
// trace (~75 hops for a disturbed sensor) that only RunScenarioTraced
// returns, which costs two objects, and, for a calibration stuck-at fault
// injected 3 µs into a golden idle window, whose window leg is silent, no
// fork-window memo either: a one-shot run keeps none. Both runs' outputs
// are golden's string and the calibration run's "detected by calib-crc"
// is interned. An outputs map and its severity string put both at 3, the
// calibration run's detail and its memory digest's sort buffer (a stuck
// cell's, one per stride) at 6; a stressor process named after its
// scenario and the severities rendered as text put them at 4 and 7.
func TestWarmSignedRunAllocatesNoTrace(t *testing.T) {
	r, err := NewRunner(Protected(), NormalDriving(), sim.MS(80))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var harness, calib fault.Scenario
	for _, d := range r.Universe(sim.MS(5)) {
		switch {
		case d.Target == "caps.accel0.harness" && d.Model == fault.Open:
			harness = fault.Single(d)
		case d.Target == "caps.fusion.calib" && d.Model == fault.StuckAt0:
			d.Start += sim.US(3)
			calib = fault.Single(d)
		}
	}
	if _, tr := r.RunScenarioTraced(harness); tr.String() == "" {
		t.Fatal("the open-harness fault leaves no propagation trace: the pin would be vacuous")
	}
	for _, tc := range []struct {
		sc     fault.Scenario
		budget float64
	}{{harness, 0}, {calib, 0}} {
		r.RunScenarioSigned(tc.sc)
		avg := testing.AllocsPerRun(20, func() { r.RunScenarioSigned(tc.sc) })
		t.Logf("%s: %v allocations per warm signed run", tc.sc.ID, avg)
		if avg > tc.budget {
			t.Errorf("a warm signed run of %s allocates %v objects, budget %v", tc.sc.ID, avg, tc.budget)
		}
	}
}

// TestCampaignAllocationBudget is the benchmark's allocs_per_scenario
// brought into tier 1: a warm Execute of a journaled two-worker tree
// campaign over the permanent universe at eight instants — runner slots,
// tree nodes and queues warm — stays under a ceiling per scenario. A
// frame, a dispatch or a journal entry that starts costing heap objects
// again fails here, not only in the benchmark. This round reads 0.92
// (0.95–1.01 under the race detector): the outputs string of each run
// whose results differ from golden's and the record's, and the buffers
// of the records the campaign's finished runs publish for later runs to
// join. An outputs map per run, a detail rendered per detected run, a
// detection list made afresh by every restore and a sort buffer per
// digest of a stuck calibration cell put it at 3.55. The run shell's
// closures and guard were 3.4 on top, a journal entry encoded from nil
// 4.7, a frame on the heap one per fusion cycle, the severities rendered
// as text and a stressor process named after its scenario 2.6.
func TestCampaignAllocationBudget(t *testing.T) {
	r, err := NewRunner(Protected(), NormalDriving(), sim.MS(80))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	scs := permanentSweep(r, sim.MS(5), sim.MS(15), sim.MS(25), sim.MS(35), sim.MS(45), sim.MS(55), sim.MS(65), sim.MS(75))
	campaign := func() *stressor.Campaign {
		return &stressor.Campaign{
			Name: "alloc-budget", Workers: 2, Checkpointer: r,
		}
	}
	header := campaign().JournalHeader(scs) // hashes the universe: once, as a front-end does
	dir, round := t.TempDir(), 0
	execute := func() {
		round++
		c := campaign()
		w, err := journal.Create(filepath.Join(dir, fmt.Sprint(round)), header)
		if err != nil {
			t.Fatal(err)
		}
		c.Journal = w
		if _, err := c.Execute(scs); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	const ceiling = 1.1
	// AllocsPerRun runs execute once to warm up before it counts.
	per := testing.AllocsPerRun(3, execute) / float64(len(scs))
	t.Logf("%.2f allocations per scenario over %d scenarios", per, len(scs))
	if per > ceiling {
		t.Errorf("%.2f allocations per scenario, ceiling %.1f", per, ceiling)
	}
}

// TestConvergingRunDigestsWithoutAllocating: a warm early-exit session
// run of a 2 ms CAN corruption transient — five convergence checks, the
// fifth of which re-joins the golden trajectory with golden's history up
// to there — allocates nothing: its observation is golden's, outputs
// string included. Each check digests the slot through its own StateHash; a
// local one escaped to the heap through the State interface, one object a
// check, which put this run at 12; the severities spliced as text and a
// stressor process named after its scenario put it at 4.
func TestConvergingRunDigestsWithoutAllocating(t *testing.T) {
	r, err := NewRunner(Protected(), NormalDriving(), sim.MS(80))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var sc fault.Scenario
	for _, d := range withTransients(r.Universe(sim.MS(5))) {
		if d.Target == "caps.can.bus" && d.Model == fault.Corruption && d.Class == fault.Transient {
			sc = fault.Single(d)
		}
	}
	fork, ok := r.ForkTime(sc)
	if !ok {
		t.Fatalf("no forkable CAN corruption transient in the universe (got %+v)", sc)
	}
	reg := obs.NewRegistry()
	sess := r.NewTreeSession(stressor.TreeConfig{Metrics: reg, Campaign: "converge"})
	defer sess.Close()
	run := func() { sess.Run(sc, fork) }
	run()
	l := obs.L("campaign", "converge")
	if exits, saved := reg.Counter("campaign.early_exits", l).Value(), reg.Counter("campaign.early_exit_saved_sim_ns", l).Value(); exits != 1 || sim.Time(saved) != sim.MS(50) {
		t.Fatalf("the run early-exited %d times, saving %v: want once, at 30 ms, after five checks", exits, sim.Time(saved))
	}
	const budget = 0
	avg := testing.AllocsPerRun(20, run)
	t.Logf("%v allocations per converging session run", avg)
	if avg > budget {
		t.Errorf("a converging session run allocates %v objects, budget %d", avg, budget)
	}
}

// TestSplicedRunAllocatesItsStreamOnly: a run that joins a finished run's
// trajectory with detections of its own and other severities — a sibling
// join in a campaign, as a plausibility-tripping sensor transient makes —
// is classified from a spliced observation: the slot, rewound by a
// restore, takes the finished run's later detections into its own list,
// the detail is interned, and the one object allocated is the spliced
// severity stream, which equals neither golden's outputs nor the record's.
// A splice whose stream equals the record's allocates nothing. An outputs
// map, the detail, a detection list made afresh by every restore and grown
// by the splice, and the splice's concat put both at 7.
func TestSplicedRunAllocatesItsStreamOnly(t *testing.T) {
	m := &model{cfg: Protected(), world: NormalDriving(), golden: "\x00\x00\x00\x00"}
	s, _ := Build(sim.NewKernel(), m.cfg, m.world)
	// The finished run: plausibility at mark 1, frame-timeout later.
	var r record
	s.Severities, s.Detections = []byte{0, 9}, []string{"plausibility"}
	m.Record(&r, s, 0, nil)
	s.Severities, s.Detections = []byte{0, 9, 7, 0}, []string{"plausibility", "frame-timeout"}
	ob := m.Observe(s)
	m.Record(&r, s, 1, &ob)
	golden := analysis.Observation{Outputs: m.golden}
	for _, tc := range []struct {
		name   string
		sev    []byte
		budget float64
	}{{"other severities", []byte{0, 5}, 1}, {"the record's severities", []byte{0, 9}, 0}} {
		// The live run at mark 0: its own detection, and tc.sev.
		s.Severities, s.Detections = tc.sev, []string{"calib-crc"}
		live := s.SnapshotState(nil)
		var out analysis.Observation
		var class fault.Classification
		var detail string
		run := func() {
			s.RestoreState(live)
			out = m.Converged(s, &r, 0)
			class, detail = analysis.Classify(golden, out), analysis.Describe(out)
		}
		run()
		if detail != "detected by calib-crc,frame-timeout" || class != fault.DetectedSafe {
			t.Fatalf("%s: spliced run is %v (%s), want detected by calib-crc,frame-timeout", tc.name, class, detail)
		}
		if fresh := out.Outputs != r.out && out.Outputs != m.golden; fresh != (tc.budget == 1) {
			t.Fatalf("%s: spliced outputs %q, record %q, golden %q: a stream of its own %v", tc.name, out.Outputs, r.out, m.golden, fresh)
		}
		avg := testing.AllocsPerRun(20, run)
		t.Logf("%s: %v allocations per spliced run", tc.name, avg)
		if avg > tc.budget {
			t.Errorf("%s: a spliced run allocates %v objects, budget %v", tc.name, avg, tc.budget)
		}
	}
}
