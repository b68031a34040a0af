package govp

// The benchmark harness regenerates every experiment of the
// reproduction (DESIGN.md §3): one benchmark per table/figure. Each
// iteration runs the full experiment and asserts that the paper's
// claimed shape holds, so `go test -bench=. -benchmem` both measures
// and re-validates the whole evaluation.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/caps"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stressor"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !res.ShapeHolds {
			b.Fatalf("%s shape violated: %s", id, res.ShapeDetail)
		}
	}
}

// BenchmarkE1_AbstractionLadder regenerates the Sec. 2.3 speed-up
// claim table (gate level → LT+temporal-decoupling).
func BenchmarkE1_AbstractionLadder(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2_CrossLayer regenerates the gate-vs-TLM injection
// divergence table (Sec. 3.4, [40]).
func BenchmarkE2_CrossLayer(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3_MutationVsCoverage regenerates the testbench-quality
// metric comparison (Sec. 2.4).
func BenchmarkE3_MutationVsCoverage(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4_MonteCarloVsGuided regenerates the rare-event search
// comparison (Sec. 3.4).
func BenchmarkE4_MonteCarloVsGuided(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5_MissionProfile regenerates the profile-derived vs
// uniform campaign comparison (Sec. 3.2).
func BenchmarkE5_MissionProfile(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6_QuantumSweep regenerates the temporal-decoupling
// accuracy/speed sweep (Sec. 3.4).
func BenchmarkE6_QuantumSweep(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7_SimFTA regenerates the simulation-synthesized fault
// tree comparison (Sec. 2.1, [8]).
func BenchmarkE7_SimFTA(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8_SingleFaultCAPS regenerates the exhaustive single-fault
// campaign and FMEDA tables (Sec. 1 safety goal).
func BenchmarkE8_SingleFaultCAPS(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9_MutationSchemata regenerates the schemata-vs-rebuild
// efficiency table (Sec. 2.4, [21]).
func BenchmarkE9_MutationSchemata(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkF2_MissionProfilePipeline regenerates Fig. 2 as an
// executable pipeline.
func BenchmarkF2_MissionProfilePipeline(b *testing.B) { benchExperiment(b, "F2") }

// BenchmarkF3_ClosedLoop regenerates Fig. 3 as an executable
// coverage-closure loop.
func BenchmarkF3_ClosedLoop(b *testing.B) { benchExperiment(b, "F3") }

// BenchmarkX1_ConcolicATPG regenerates the extension experiment:
// concolic test generation closing mutation-score gaps.
func BenchmarkX1_ConcolicATPG(b *testing.B) { benchExperiment(b, "X1") }

// BenchmarkX2_MechanismAblation regenerates the safety-mechanism
// ablation table (DESIGN.md §4).
func BenchmarkX2_MechanismAblation(b *testing.B) { benchExperiment(b, "X2") }

// BenchmarkX3_FaultSimAcceleration regenerates the bit-parallel
// fault-grading comparison (Sec. 2.2 acceleration).
func BenchmarkX3_FaultSimAcceleration(b *testing.B) { benchExperiment(b, "X3") }

// BenchmarkCampaignParallel measures the worker-pool campaign engine
// against the sequential loop on the E8 single-fault universe (the
// repository's hot path). Each scenario builds a fresh CAPS virtual
// prototype, so runs are independent and the speedup at
// workers=GOMAXPROCS approaches the core count on a multi-core
// machine; compare the sequential and workers sub-benchmarks with
// benchstat. Results are deterministic for every worker count (see
// TestCampaignDeterminismAcrossWorkers), so the sub-benchmarks also
// cross-check each other's tallies.
// BenchmarkKernelObsOverhead measures the cost of the observability
// hooks on the kernel hot path: the same two-process ping-pong
// workload uninstrumented (the nil-check fast path the ±5% overhead
// budget of DESIGN.md §8 applies to) and with a full metrics+trace
// instrument attached. Compare the sub-benchmarks with benchstat.
func BenchmarkKernelObsOverhead(b *testing.B) {
	const rounds = 2000
	workload := func(k *sim.Kernel) {
		ping := k.NewEvent("ping")
		pong := k.NewEvent("pong")
		k.Thread("ping", func(ctx *sim.ThreadCtx) {
			for i := 0; i < rounds; i++ {
				ping.Notify(sim.NS(10))
				ctx.Wait(pong)
			}
		})
		k.Thread("pong", func(ctx *sim.ThreadCtx) {
			for i := 0; i < rounds; i++ {
				ctx.Wait(ping)
				pong.Notify(sim.NS(10))
			}
		})
	}
	run := func(b *testing.B, instrument bool) {
		b.ReportAllocs()
		b.ReportMetric(rounds, "rounds/op")
		for i := 0; i < b.N; i++ {
			k := sim.NewKernel()
			if instrument {
				k.SetInstrument(&sim.Instrument{
					Metrics: obs.NewRegistry(),
					Trace:   obs.NewTraceRecorder(),
				})
			}
			workload(k)
			if err := k.Run(sim.TimeMax); err != nil {
				b.Fatal(err)
			}
			k.Shutdown()
		}
	}
	b.Run("uninstrumented", func(b *testing.B) { run(b, false) })
	b.Run("instrumented", func(b *testing.B) { run(b, true) })
}

func BenchmarkCampaignParallel(b *testing.B) {
	horizon := sim.MS(80)
	runner, err := caps.NewRunner(caps.Protected(), caps.NormalDriving(), horizon)
	if err != nil {
		b.Fatal(err)
	}
	var scenarios []fault.Scenario
	for _, d := range runner.Universe(sim.MS(10)) {
		scenarios = append(scenarios, fault.Single(d))
	}
	want, err := (&stressor.Campaign{Name: "ref", Run: runner.RunScenario}).Execute(scenarios)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name    string
		workers int
	}{
		{"sequential", 0},
		{fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), stressor.WorkersAuto},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			c := &stressor.Campaign{Name: "bench", Run: runner.RunScenario, Workers: bc.workers}
			b.ReportAllocs()
			b.ReportMetric(float64(len(scenarios)), "scenarios/op")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Execute(scenarios)
				if err != nil {
					b.Fatal(err)
				}
				if res.Tally.String() != want.Tally.String() {
					b.Fatalf("tally %s != sequential reference %s", res.Tally, want.Tally)
				}
			}
		})
	}
}

// BenchmarkCampaignReuse is the tentpole measurement: the E8
// single-fault universe with rebuild-per-run (the pre-reuse engine,
// ReuseOff) against the pooled path, each slot rewound to the runner's
// root checkpoint, sequentially
// and at GOMAXPROCS workers. Both paths produce identical tallies
// (cross-checked each iteration); only the per-scenario constant
// factor differs. Compare rebuild/* with reuse/* using benchstat.
//
// Two regimes, because the reuse payoff scales with the ratio of
// construction cost to simulated work:
//
//   - h=10ms is the campaign-overhead regime — short observation
//     windows, the shape of statistical injection sweeps where a
//     campaign burns through very many runs. This is where the PR 3
//     acceptance bar (≥1.5× on the sequential pair) is measured.
//   - h=80ms is the full-length E8 experiment, where per-run simulated
//     work dominates both paths; reuse still wins the construction
//     premium and allocates ~6× less.
func BenchmarkCampaignReuse(b *testing.B) {
	for _, reg := range []struct {
		name    string
		horizon sim.Time
		inject  sim.Time
	}{{"h=10ms", sim.MS(10), sim.MS(2)}, {"h=80ms", sim.MS(80), sim.MS(10)}} {
		ref, err := caps.NewRunner(caps.Protected(), caps.NormalDriving(), reg.horizon)
		if err != nil {
			b.Fatal(err)
		}
		scenarios := fault.Singles(ref.Universe(reg.inject))
		want, err := (&stressor.Campaign{Name: "ref", Run: ref.RunScenario}).Execute(scenarios)
		if err != nil {
			b.Fatal(err)
		}
		ref.Close()
		for _, mode := range []struct {
			name     string
			reuseOff bool
		}{{"rebuild", true}, {"reuse", false}} {
			for _, wc := range []struct {
				name    string
				workers int
			}{{"sequential", 0}, {fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), stressor.WorkersAuto}} {
				b.Run(reg.name+"/"+mode.name+"/"+wc.name, func(b *testing.B) {
					runner, err := caps.NewRunner(caps.Protected(), caps.NormalDriving(), reg.horizon)
					if err != nil {
						b.Fatal(err)
					}
					defer runner.Close()
					runner.ReuseOff = mode.reuseOff
					c := &stressor.Campaign{Name: "bench", Run: runner.RunScenario, Workers: wc.workers}
					b.ReportAllocs()
					b.ReportMetric(float64(len(scenarios)), "scenarios/op")
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := c.Execute(scenarios)
						if err != nil {
							b.Fatal(err)
						}
						if res.Tally.String() != want.Tally.String() {
							b.Fatalf("tally %s != reference %s", res.Tally, want.Tally)
						}
					}
				})
			}
		}
	}
}

// BenchmarkCampaignTree measures the checkpoint tree on the E8
// transient sweep (every injection site x four sub-frame injection
// offsets at inject=10ms, 400us pulses, h=80ms full horizon) in two
// engine modes: reuse is the plain path, a one-shot call per scenario
// with no Checkpointer; tree forks every scenario from a retained
// golden-prefix node. Both early-exit against the golden trajectory, as
// every run with no permanent fault does. Transient pulses this short
// leave most runs dynamically identical to the golden run within a
// stride or two of the revert, so early-exit truncates ~3/4 of the
// universe (62/84 scenarios converge; the rest latch a detection or
// corrupt persistent state and must run out the horizon). Both modes
// produce the identical tally (cross-checked each iteration), and
// byte-identical full results are pinned by the stressortest matrix.
func BenchmarkCampaignTree(b *testing.B) {
	horizon := sim.MS(80)
	ref, err := caps.NewRunner(caps.Protected(), caps.NormalDriving(), horizon)
	if err != nil {
		b.Fatal(err)
	}
	var universe []fault.Descriptor
	for _, off := range []sim.Time{0, sim.US(250), sim.US(500), sim.US(750)} {
		for _, d := range ref.Universe(sim.MS(10) + off) {
			d.Name += "+t400us@" + off.String()
			d.Class = fault.Transient
			d.Duration = sim.US(400)
			universe = append(universe, d)
		}
	}
	scenarios := fault.Singles(universe)
	want, err := (&stressor.Campaign{Name: "ref", Run: ref.RunScenario}).Execute(scenarios)
	if err != nil {
		b.Fatal(err)
	}
	ref.Close()
	for _, mode := range []struct {
		name string
		tree bool
	}{
		{"reuse", false},
		{"tree", true},
	} {
		for _, wc := range []struct {
			name    string
			workers int
		}{{"sequential", 0}, {fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), stressor.WorkersAuto}} {
			b.Run(mode.name+"/"+wc.name, func(b *testing.B) {
				runner, err := caps.NewRunner(caps.Protected(), caps.NormalDriving(), horizon)
				if err != nil {
					b.Fatal(err)
				}
				defer runner.Close()
				c := &stressor.Campaign{Name: "bench", Workers: wc.workers}
				if mode.tree {
					c.Checkpointer = runner
				} else {
					c.Run = runner.RunScenario
				}
				b.ReportAllocs()
				b.ReportMetric(float64(len(scenarios)), "scenarios/op")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := c.Execute(scenarios)
					if err != nil {
						b.Fatal(err)
					}
					if res.Tally.String() != want.Tally.String() {
						b.Fatalf("tally %s != reference %s", res.Tally, want.Tally)
					}
				}
			})
		}
	}
}

// BenchmarkCampaignForkWindows is the dense permanent-fault sweep fork
// windows exist for (DESIGN §14): the E8 universe at 304 instants 247 µs
// apart, several to each idle window of the golden run, through the
// checkpoint tree on two workers. simulated/scenario is the share of
// scenarios a kernel actually ran — the rest were answered from a
// session's window memo; it is a count, and moves only when the collapse
// does.
func BenchmarkCampaignForkWindows(b *testing.B) {
	runner, err := caps.NewRunner(caps.Protected(), caps.NormalDriving(), sim.MS(80))
	if err != nil {
		b.Fatal(err)
	}
	defer runner.Close()
	var universe []fault.Descriptor
	for i := 0; i < 304; i++ {
		at := sim.MS(1) + sim.Time(i)*sim.US(247)
		for _, d := range runner.Universe(at) {
			d.Name += "@" + at.String()
			universe = append(universe, d)
		}
	}
	scenarios := fault.Singles(universe)
	reg := obs.NewRegistry()
	c := &stressor.Campaign{
		Name: "bench", Workers: 2, Metrics: reg, Checkpointer: runner,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Execute(scenarios); err != nil {
			b.Fatal(err)
		}
	}
	hits := reg.Counter("campaign.fork_window_hits", obs.L("campaign", "bench")).Value()
	b.ReportMetric(1-float64(hits)/float64(b.N*len(scenarios)), "simulated/scenario")
}

// BenchmarkKernelTimedScheduling isolates the allocation-lean event
// queue: a reused kernel running a self-retriggering timed event in
// steady state. allocs/op must report 0 (also pinned by
// TestSteadyStateTimedSchedulingAllocs).
func BenchmarkKernelTimedScheduling(b *testing.B) {
	k := sim.NewKernel()
	tick := k.NewEvent("tick")
	k.MethodNoInit("ticker", func() { tick.Notify(sim.NS(10)) }, tick)
	tick.Notify(sim.NS(10))
	if err := k.Run(sim.US(1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Run(sim.US(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignSharded measures the shard/journal/merge overhead
// on the E8 single-fault universe in the campaign-overhead regime
// (h=10ms): each iteration executes every shard with a fresh run
// journal, reads the journals back and (for shards>1) merges them
// into the final Result, exactly as a distributed campaign would.
// shards=1 is the journaled-but-unsharded baseline; the deltas to
// shards=2 and shards=4 price the partition + merge machinery.
func BenchmarkCampaignSharded(b *testing.B) {
	horizon, inject := sim.MS(10), sim.MS(2)
	ref, err := caps.NewRunner(caps.Protected(), caps.NormalDriving(), horizon)
	if err != nil {
		b.Fatal(err)
	}
	scenarios := fault.Singles(ref.Universe(inject))
	want, err := (&stressor.Campaign{Name: "ref", Run: ref.RunScenario}).Execute(scenarios)
	if err != nil {
		b.Fatal(err)
	}
	ref.Close()
	hash := stressor.UniverseHash(scenarios)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			runner, err := caps.NewRunner(caps.Protected(), caps.NormalDriving(), horizon)
			if err != nil {
				b.Fatal(err)
			}
			defer runner.Close()
			dir := b.TempDir()
			b.ReportAllocs()
			b.ReportMetric(float64(len(scenarios)), "scenarios/op")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				js := make([]*journal.Journal, shards)
				for s := 0; s < shards; s++ {
					path := filepath.Join(dir, fmt.Sprintf("i%d-s%d.journal", i, s))
					h := journal.Header{
						Campaign: "bench", Shard: s, Shards: shards,
						Total: len(scenarios), Universe: hash,
					}
					w, err := journal.Create(path, h)
					if err != nil {
						b.Fatal(err)
					}
					var sh stressor.Shard
					if shards > 1 {
						sh = stressor.Shard{Index: s, Count: shards}
					}
					c := &stressor.Campaign{Name: "bench", Run: runner.RunScenario, Shard: sh, Journal: w}
					if _, err := c.Execute(scenarios); err != nil {
						b.Fatal(err)
					}
					if err := w.Close(); err != nil {
						b.Fatal(err)
					}
					if js[s], err = journal.Read(path); err != nil {
						b.Fatal(err)
					}
				}
				res, err := stressor.Merge(stressor.MergeSpec{}, scenarios, js)
				if err != nil {
					b.Fatal(err)
				}
				if res.Tally.String() != want.Tally.String() {
					b.Fatalf("tally %s != reference %s", res.Tally, want.Tally)
				}
			}
		})
	}
}
