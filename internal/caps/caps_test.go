package caps

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stressor"
	"repro/internal/stressor/stressortest"
)

var horizon = sim.MS(100)

func TestWorldProfiles(t *testing.T) {
	n := NormalDriving()
	for _, ti := range []sim.Time{0, sim.MS(10), sim.MS(50)} {
		if g := n.Accel(ti); g < 0 || g > 2 {
			t.Errorf("normal accel at %v = %g, want sub-2 g", ti, g)
		}
	}
	c := CrashAt(sim.MS(20))
	if g := c.Accel(sim.MS(10)); g > 2 {
		t.Errorf("pre-crash accel = %g", g)
	}
	if g := c.Accel(sim.MS(30)); g < 70 {
		t.Errorf("plateau accel = %g, want ~80 g", g)
	}
	if g := c.Accel(sim.MS(60)); g > 2 {
		t.Errorf("post-crash accel = %g", g)
	}
}

func TestSensorSampling(t *testing.T) {
	w := NormalDriving()
	s := NewSensor("a", w)
	v := s.Sample(sim.MS(1))
	if v <= 0 || v > 0.2 {
		t.Errorf("normal sample = %g V", v)
	}
	s.SetDisturbance(0.5, 0)
	if s.Sample(sim.MS(1)) != 0 {
		t.Error("override 0 not applied")
	}
	s.SetDisturbance(0, mathInf())
	if s.Sample(sim.MS(1)) != 0 {
		t.Error("open line should read 0 V")
	}
	if !s.Faulted() {
		t.Error("Faulted false under disturbance")
	}
}

func mathInf() float64 { return math.Inf(1) }

func TestGoldenNormalRunDoesNotFire(t *testing.T) {
	r, err := NewRunner(Protected(), NormalDriving(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	g := r.Golden()
	if g.GoalViolated || g.Detected {
		t.Errorf("golden = %+v", g)
	}
	if Fired(g) {
		t.Error("golden run fired")
	}
}

func TestGoldenCrashRunFiresOnTime(t *testing.T) {
	world := CrashAt(sim.MS(20))
	r, err := NewRunner(Protected(), world, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if !Fired(r.Golden()) {
		t.Fatal("crash run did not deploy")
	}
	if r.Golden().DeadlineMissed {
		t.Error("crash deployment missed deadline")
	}
}

func TestUnprotectedShortToSupplyFires(t *testing.T) {
	r, err := NewRunner(Unprotected(), NormalDriving(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	o := r.RunScenario(fault.Single(fault.Descriptor{
		Name: "sts", Model: fault.ShortToSupply, Class: fault.Permanent,
		Target: "caps.accel0.harness", Start: sim.MS(10),
	}))
	if o.Class != fault.SafetyCritical {
		t.Errorf("class = %s (%s), want safety-critical", o.Class, o.Detail)
	}
	if !strings.Contains(o.Detail, "inadvertent") {
		t.Errorf("detail = %q", o.Detail)
	}
}

func TestProtectedShortToSupplyDetected(t *testing.T) {
	r, err := NewRunner(Protected(), NormalDriving(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	o := r.RunScenario(fault.Single(fault.Descriptor{
		Name: "sts", Model: fault.ShortToSupply, Class: fault.Permanent,
		Target: "caps.accel0.harness", Start: sim.MS(10),
	}))
	if o.Class != fault.DetectedSafe {
		t.Errorf("class = %s (%s), want detected-safe (plausibility)", o.Class, o.Detail)
	}
	if !strings.Contains(o.Detail, "plausibility") {
		t.Errorf("detail = %q", o.Detail)
	}
}

func TestThresholdStuckAtZero(t *testing.T) {
	d := fault.Descriptor{
		Name: "thr0", Model: fault.StuckAt0, Class: fault.Permanent,
		Target: "caps.airbag.threshold", Start: sim.MS(10),
	}
	ru, err := NewRunner(Unprotected(), NormalDriving(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	if o := ru.RunScenario(fault.Single(d)); o.Class != fault.SafetyCritical {
		t.Errorf("unprotected class = %s (%s)", o.Class, o.Detail)
	}
	rp, err := NewRunner(Protected(), NormalDriving(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	if o := rp.RunScenario(fault.Single(d)); o.Class != fault.DetectedSafe {
		t.Errorf("protected class = %s (%s)", o.Class, o.Detail)
	}
}

func TestBabblingIdiot(t *testing.T) {
	d := fault.Descriptor{
		Name: "babble", Model: fault.Babbling, Class: fault.Permanent,
		Target: "caps.can.bus", Start: sim.MS(10),
	}
	rp, err := NewRunner(Protected(), NormalDriving(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	if o := rp.RunScenario(fault.Single(d)); o.Class != fault.DetectedSafe {
		t.Errorf("protected class = %s (%s), want detected-safe (frame watchdog)", o.Class, o.Detail)
	}
	// In a crash, a babbling bus without watchdog means no deployment.
	ru, err := NewRunner(Unprotected(), CrashAt(sim.MS(20)), horizon)
	if err != nil {
		t.Fatal(err)
	}
	if o := ru.RunScenario(fault.Single(d)); o.Class != fault.SafetyCritical {
		t.Errorf("unprotected crash class = %s (%s), want safety-critical (G2)", o.Class, o.Detail)
	}
}

func TestCalibBitFlip(t *testing.T) {
	d := fault.Descriptor{
		Name: "calib", Model: fault.BitFlip, Class: fault.Permanent,
		Target: "caps.fusion.calib", Address: calibScaleAddr, Bit: 5, Start: sim.MS(10),
	}
	rp, err := NewRunner(Protected(), NormalDriving(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	if o := rp.RunScenario(fault.Single(d)); o.Class != fault.DetectedSafe {
		t.Errorf("protected class = %s (%s), want detected-safe (calib CRC)", o.Class, o.Detail)
	}
	ru, err := NewRunner(Unprotected(), NormalDriving(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	o := ru.RunScenario(fault.Single(d))
	if o.Class != fault.SDC && o.Class != fault.SafetyCritical {
		t.Errorf("unprotected class = %s (%s), want sdc or worse", o.Class, o.Detail)
	}
}

func TestOpenHarnessProtected(t *testing.T) {
	r, err := NewRunner(Protected(), NormalDriving(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	o := r.RunScenario(fault.Single(fault.Descriptor{
		Name: "open", Model: fault.Open, Class: fault.Permanent,
		Target: "caps.accel1.harness", Start: sim.MS(10),
	}))
	// Sensor reads 0 V; golden normal readings are tiny, so the
	// disagreement may stay under tolerance — acceptable outcomes are
	// detected-safe (plausibility) or latent (dormant wiring defect).
	if o.Class != fault.DetectedSafe && o.Class != fault.Latent && o.Class != fault.SDC {
		t.Errorf("class = %s (%s)", o.Class, o.Detail)
	}
}

func TestExhaustiveCampaignProtectedHasNoG1Violations(t *testing.T) {
	r, err := NewRunner(Protected(), NormalDriving(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	var scenarios []fault.Scenario
	for _, d := range r.Universe(sim.MS(10)) {
		scenarios = append(scenarios, fault.Single(d))
	}
	c := &stressor.Campaign{Name: "protected", Run: r.RunScenario}
	res, err := c.Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Tally[fault.SafetyCritical]; n != 0 {
		for _, o := range res.ByClass(fault.SafetyCritical) {
			t.Logf("violation: %s -> %s", o.Scenario.ID, o.Detail)
		}
		t.Errorf("%d single faults trigger the airbag despite mechanisms (tally %s)", n, res.Tally)
	}
}

func TestExhaustiveCampaignUnprotectedHasViolations(t *testing.T) {
	r, err := NewRunner(Unprotected(), NormalDriving(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	var scenarios []fault.Scenario
	for _, d := range r.Universe(sim.MS(10)) {
		scenarios = append(scenarios, fault.Single(d))
	}
	c := &stressor.Campaign{Name: "unprotected", Run: r.RunScenario}
	res, err := c.Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally[fault.SafetyCritical] == 0 {
		t.Errorf("no G1 violations without mechanisms (tally %s) — the mechanisms are not load-bearing", res.Tally)
	}
}

func TestSitesEnumerated(t *testing.T) {
	r, err := NewRunner(Protected(), NormalDriving(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	sites := r.Sites()
	want := []string{"caps.accel0.harness", "caps.accel1.harness", "caps.airbag.threshold", "caps.can.bus", "caps.fusion.calib"}
	if len(sites) != len(want) {
		t.Fatalf("sites = %v", sites)
	}
	for i := range want {
		if sites[i] != want[i] {
			t.Errorf("sites[%d] = %s, want %s", i, sites[i], want[i])
		}
	}
}

// TestShippedUniverseHash pins the fingerprint of the shipped fault
// universe to the literal every journal of it carries: a change to the
// enumeration, the fault names or the way the hash spells fault content
// would orphan those journals.
func TestShippedUniverseHash(t *testing.T) {
	r, err := NewRunner(Protected(), NormalDriving(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := stressor.UniverseHash(fault.Singles(r.Universe(sim.MS(10)))); got != "4dffca0d4f099be9" {
		t.Fatalf("universe hash %s, journals carry 4dffca0d4f099be9", got)
	}
}

func TestPropagationTrace(t *testing.T) {
	// Unprotected: the disturbed sensor value propagates all the way
	// to deployment, and the trace shows the path.
	ru, err := NewRunner(Unprotected(), NormalDriving(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	o, tr := ru.RunScenarioTraced(fault.Single(fault.Descriptor{
		Name: "sts", Model: fault.ShortToSupply, Class: fault.Permanent,
		Target: "caps.accel0.harness", Start: sim.MS(10),
	}))
	if o.Class != fault.SafetyCritical {
		t.Fatalf("class = %s", o.Class)
	}
	// The distinct sites in first-visit order, off the rendered path.
	var sites []string
	deployed := false
	for _, hop := range strings.Split(tr.String(), " -> ") {
		if site, _, _ := strings.Cut(hop, "@"); !slices.Contains(sites, site) {
			sites = append(sites, site)
		}
		deployed = deployed || strings.HasPrefix(hop, "caps.airbag@") && strings.HasSuffix(hop, "(deployment)")
	}
	want := []string{"caps.accel0", "caps.airbag"}
	if len(sites) < 2 || sites[0] != want[0] || sites[1] != want[1] {
		t.Errorf("propagation path = %v, want prefix %v", sites, want)
	}
	if !deployed {
		t.Errorf("trace missing the deployment hop: %s", tr)
	}

	// Protected: the path ends at the plausibility barrier instead.
	rp, err := NewRunner(Protected(), NormalDriving(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	o, tr = rp.RunScenarioTraced(fault.Single(fault.Descriptor{
		Name: "sts", Model: fault.ShortToSupply, Class: fault.Permanent,
		Target: "caps.accel0.harness", Start: sim.MS(10),
	}))
	if o.Class != fault.DetectedSafe {
		t.Fatalf("protected class = %s", o.Class)
	}
	if strings.Contains(tr.String(), "(deployment)") {
		t.Error("protected trace reaches deployment")
	}
	if !strings.HasPrefix(tr.String(), "caps.fusion@") && !strings.Contains(tr.String(), " -> caps.fusion@") {
		t.Errorf("trace missing the fusion barrier hop: %s", tr)
	}
}

// TestPropagationTraceOfATransient: a 2 ms pulse that re-converges with
// the golden run is still traced to the horizon when the caller asks for
// the prototype — a run handed to RunScenarioWith is never checked for
// convergence, which would end it without one — so the pooled runner's
// trace and outcome are the ReuseOff runner's. The campaign leg proves
// the pulse does converge when nobody asks.
func TestPropagationTraceOfATransient(t *testing.T) {
	sc := fault.Single(fault.Descriptor{
		Name: "open-2ms", Model: fault.Open, Class: fault.Transient,
		Target: "caps.accel0.harness", Start: sim.MS(10), Duration: sim.MS(2),
	})
	pooled, err := NewRunner(Protected(), NormalDriving(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	defer pooled.Close()
	rebuild, err := NewRunner(Protected(), NormalDriving(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	defer rebuild.Close()
	rebuild.ReuseOff = true

	reg := obs.NewRegistry()
	if _, err := (&stressor.Campaign{Name: "pulse", Checkpointer: pooled, Metrics: reg}).Execute([]fault.Scenario{sc}); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("campaign.early_exits", obs.L("campaign", "pulse")).Value() != 1 {
		t.Fatal("the pulse did not re-converge: the trace below would prove nothing")
	}

	got, gotTr := pooled.RunScenarioTraced(sc)
	want, wantTr := rebuild.RunScenarioTraced(sc)
	if got.Class != want.Class || got.Detail != want.Detail {
		t.Errorf("pooled run says %s %q, ReuseOff %s %q", got.Class, got.Detail, want.Class, want.Detail)
	}
	if wantTr.String() == "" {
		t.Fatal("the ReuseOff trace is empty: the pulse leaves no hop to compare")
	}
	if gotTr.String() != wantTr.String() {
		t.Errorf("pooled trace\n%s\nReuseOff trace\n%s", gotTr, wantTr)
	}
}

// TestCampaignDeterminismMatrix runs the real E8 single-fault campaign
// through the shared cross-mode matrix: {sequential, parallel} ×
// {rebuild, reuse} × {unsharded, 2-shard merged, 4-shard merged} ×
// {fresh, resumed-after-interrupt} must all be byte-identical to the
// rebuild/sequential baseline. Beyond determinism, under `go test
// -race` this is the concurrency audit of the whole prototype stack:
// several sim kernels, CAPS systems and fault registries live at once,
// and any package-level mutable state shared between them would trip
// the detector.
func TestCampaignDeterminismMatrix(t *testing.T) {
	runner, err := NewRunner(Protected(), NormalDriving(), sim.MS(30))
	if err != nil {
		t.Fatal(err)
	}
	scenarios := fault.Singles(withTransients(runner.Universe(sim.MS(5))))
	runner.Close()
	stressortest.Run(t, stressortest.Config{
		Name:      "caps-e8",
		Scenarios: scenarios,
		NewRun: func(t *testing.T, reuseOff bool) (stressortest.Prototype, func()) {
			r, err := NewRunner(Protected(), NormalDriving(), sim.MS(30))
			if err != nil {
				t.Fatal(err)
			}
			r.ReuseOff = reuseOff
			return r, r.Close
		},
		Hooked: hooked,
		Dedup:  true,
	})
}

// hooked is the matrix's hooked one-shot call: RunScenarioWith with a
// hook that calls hook and keeps nothing.
func hooked(p stressortest.Prototype, sc fault.Scenario, hook func()) fault.Outcome {
	return p.(*Runner).RunScenarioWith(sc, func(*System) { hook() })
}

// TestCampaignStopOnFirstShardMatrix runs the matrix under StopOnFirst
// on the E8 universe injected at 5 ms and then at 3 ms: the first
// failure in index order is a 5 ms scenario, which injection-time
// shards place after every 3 ms one, so the shards that hold the
// positions before it are not the one that finds it.
func TestCampaignStopOnFirstShardMatrix(t *testing.T) {
	runner, err := NewRunner(Protected(), NormalDriving(), sim.MS(30))
	if err != nil {
		t.Fatal(err)
	}
	var scenarios []fault.Scenario
	for _, at := range []sim.Time{sim.MS(5), sim.MS(3)} {
		for _, d := range runner.Universe(at) {
			d.Name += "@" + at.String()
			scenarios = append(scenarios, fault.Single(d))
		}
	}
	res, err := (&stressor.Campaign{Name: "probe", Run: runner.RunScenario, StopOnFirst: true}).Execute(scenarios)
	runner.Close()
	if err != nil {
		t.Fatal(err)
	}
	if o, ok := res.FirstFailure(); !ok || !strings.HasSuffix(o.Scenario.ID, "@"+sim.MS(5).String()) {
		t.Fatalf("first failure %+v (found %v), want a 5 ms scenario", o.Scenario, ok)
	}
	stressortest.Run(t, stressortest.Config{
		Name:      "caps-e8-stop",
		Scenarios: scenarios,
		NewRun: func(t *testing.T, reuseOff bool) (stressortest.Prototype, func()) {
			r, err := NewRunner(Protected(), NormalDriving(), sim.MS(30))
			if err != nil {
				t.Fatal(err)
			}
			r.ReuseOff = reuseOff
			return r, r.Close
		},
		Hooked:      hooked,
		StopOnFirst: true,
	})
}

// withTransients appends a transient variant of every descriptor (2 ms
// active window) to the universe. Transient runs whose disturbance
// decays are the ones convergence early-exit can terminate early, so
// every pooled cell of the determinism matrix exercises both the
// converged and the ran-to-horizon path; the permanent originals run to
// the horizon unchecked.
func withTransients(u []fault.Descriptor) []fault.Descriptor {
	out := append([]fault.Descriptor(nil), u...)
	for _, d := range u {
		d.Name += "+t2ms"
		d.Class = fault.Transient
		d.Duration = sim.MS(2)
		out = append(out, d)
	}
	return out
}

// TestRunnerNewCampaignShard: a campaign over the runner wires the shard
// through — two half campaigns partition exactly the unsharded outcome
// list.
func TestRunnerNewCampaignShard(t *testing.T) {
	runner, err := NewRunner(Protected(), NormalDriving(), sim.MS(30))
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	scs := fault.Singles(runner.Universe(sim.MS(5)))
	campaign := func(shard stressor.Shard) *stressor.Campaign {
		return &stressor.Campaign{Name: "nc", Shard: shard, Checkpointer: runner}
	}
	full, err := campaign(stressor.Shard{}).Execute(scs)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]fault.Outcome{}
	total := 0
	for s := 0; s < 2; s++ {
		res, err := campaign(stressor.Shard{Index: s, Count: 2}).Execute(scs)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range res.Outcomes {
			byID[o.Scenario.ID] = o
		}
		total += len(res.Outcomes)
	}
	if total != len(full.Outcomes) {
		t.Fatalf("shards produced %d outcomes, full campaign %d", total, len(full.Outcomes))
	}
	for _, want := range full.Outcomes {
		got, ok := byID[want.Scenario.ID]
		if !ok || got.Class != want.Class || got.Detail != want.Detail {
			t.Fatalf("scenario %s: shard outcome %+v, full %+v", want.Scenario.ID, got, want)
		}
	}
}

// TestCampaignAdaptiveDeterminismMatrix runs the closed adaptive loop
// — Novelty strategy feeding on real CAPS state signatures — through
// the shared adaptive matrix: {sequential, 4 workers} × {rebuild,
// reuse, tree, tree again warm} × {fresh, interrupted+resumed} must all
// reproduce the sequential reference exactly, signatures included. This pins the engine's ordered-
// delivery guarantee against a real prototype, where run latencies
// genuinely vary.
func TestCampaignAdaptiveDeterminismMatrix(t *testing.T) {
	r, err := NewRunner(Protected(), NormalDriving(), sim.MS(30))
	if err != nil {
		t.Fatal(err)
	}
	universe := r.Universe(sim.MS(5))
	r.Close()
	stressortest.RunAdaptive(t, stressortest.AdaptiveConfig{
		Name:     "caps-e8-adaptive",
		Universe: universe,
		NewRun: func(t *testing.T, reuseOff bool) (stressortest.Prototype, func()) {
			r, err := NewRunner(Protected(), NormalDriving(), sim.MS(30))
			if err != nil {
				t.Fatal(err)
			}
			r.ReuseOff = reuseOff
			return r, r.Close
		},
	})
}

// TestInstrumentedProcSeriesDoNotGrowWithScenarios: an instrumented
// campaign publishes one sim.proc.* series per process name, and every
// scenario's stressor process has the same one, so the series a
// 168-scenario campaign registers are those a 1-scenario one does. A
// process named after its scenario grew the label set by one a run.
func TestInstrumentedProcSeriesDoNotGrowWithScenarios(t *testing.T) {
	procs := func(n int) []string {
		r, err := NewRunner(Protected(), NormalDriving(), sim.MS(80))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		reg := obs.NewRegistry()
		r.Instrument(reg, nil)
		scs := permanentSweep(r, sim.MS(5), sim.MS(15), sim.MS(25), sim.MS(35), sim.MS(45), sim.MS(55), sim.MS(65), sim.MS(75))
		if _, err := (&stressor.Campaign{Name: "procs", Workers: 2, Checkpointer: r}).Execute(scs[:n]); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, m := range reg.Snapshot() {
			if strings.HasPrefix(m.Name, "sim.proc.") {
				for _, l := range m.Labels {
					if l.Key == "proc" {
						names = append(names, m.Name+" "+l.Value)
					}
				}
			}
		}
		return names
	}
	one, all := procs(1), procs(168)
	if !slices.Equal(all, one) {
		t.Errorf("168 scenarios register %d sim.proc series, 1 scenario %d:\n168: %q\n1:   %q", len(all), len(one), all, one)
	}
	if !slices.Contains(one, "sim.proc.activations stressor") {
		t.Errorf("no stressor process series in %q: the comparison is vacuous", one)
	}
}
