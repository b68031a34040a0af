package fabric

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/caps"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// benchLatency models the per-scenario execution latency of a remote
// prototype in the "remote" regime: the wall-clock cost of driving a
// hardware-in-the-loop rig or a co-simulated prototype on another host,
// during which the local worker is idle, not computing.
const benchLatency = 3 * time.Millisecond

// BenchmarkCampaignDistributed is the PR 9 tentpole measurement: an
// E8-style injection-time sweep on the CAPS prototype (h=80ms, the
// exhaustive single-fault universe at 16 activation times), executed
// through the full coordinator+worker fabric — lease grants, heartbeat
// flushes over HTTP, binary shard journals on disk, incremental merge —
// with 1 local worker vs 2, in two regimes:
//
//   - sim: each scenario is the local CAPS kernel simulation. This is
//     pure CPU work, so the workers=2/workers=1 ratio tracks the host's
//     core count — on a single-core host it cannot exceed ~1×, and the
//     sub-benchmark exists to pin the fabric's overhead, not a speedup.
//   - remote: each scenario additionally carries benchLatency of
//     wall-clock execution latency, modeling a prototype that runs on a
//     HIL rig or a co-simulation host. Latency overlaps across workers
//     regardless of local core count; this is the regime distributed
//     campaigns exist for, and where the ≥1.7× two-worker throughput
//     claim is measured.
//
// Each iteration is one complete distributed campaign over 4 shards,
// cross-checked against the sequential tally. The runner is shared
// (its slot pool grows one kernel per concurrent worker), so the
// workers delta isolates the fabric, not kernel construction.
func BenchmarkCampaignDistributed(b *testing.B) {
	const horizonMS = 80
	runner, err := caps.NewRunner(caps.Protected(), caps.NormalDriving(), sim.MS(horizonMS))
	if err != nil {
		b.Fatal(err)
	}
	defer runner.Close()
	// The E8 universe swept over 16 activation times. Descriptor names
	// encode only site/model, so stamp the activation time into the
	// scenario ID to keep the swept universe unambiguous.
	var scenarios []fault.Scenario
	for t := 2; t < horizonMS-14; t += 4 {
		for _, d := range runner.Universe(sim.MS(uint64(t))) {
			d.Name = fmt.Sprintf("%s@t%dms", d.Name, t)
			scenarios = append(scenarios, fault.Single(d))
		}
	}
	want, err := (&stressor.Campaign{Name: "ref", Run: runner.RunScenario}).Execute(scenarios)
	if err != nil {
		b.Fatal(err)
	}

	regimes := []struct {
		name string
		run  stressor.RunFunc
	}{
		{"sim", runner.RunScenario},
		{"remote", func(sc fault.Scenario) fault.Outcome {
			time.Sleep(benchLatency)
			return runner.RunScenario(sc)
		}},
	}
	for _, regime := range regimes {
		res := resolver(scenarios, regime.run)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", regime.name, workers), func(b *testing.B) {
				dir := b.TempDir()
				b.ReportAllocs()
				b.ReportMetric(float64(len(scenarios)), "scenarios/op")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c, err := NewCoordinator(CoordConfig{
						Campaign: "bench", Scenarios: scenarios, Shards: 4,
						DataDir:  filepath.Join(dir, fmt.Sprintf("i%d", i)),
						LeaseTTL: time.Minute, StealAfter: time.Hour,
					})
					if err != nil {
						b.Fatal(err)
					}
					srv := httptest.NewServer(c.Handler())
					ws := make([]*Worker, workers)
					for wi := range ws {
						w, err := NewWorker(WorkerConfig{
							Name: fmt.Sprintf("w%d", wi), Coordinator: srv.URL,
							Resolve: res, Heartbeat: 100 * time.Millisecond,
						})
						if err != nil {
							b.Fatal(err)
						}
						ws[wi] = w
					}
					errs := make(chan error, workers)
					for _, w := range ws {
						go func() { errs <- w.Run(context.Background()) }()
					}
					for range ws {
						if err := <-errs; err != nil {
							b.Fatal(err)
						}
					}
					got, done, err := c.Result()
					if err != nil || !done {
						b.Fatalf("done=%v err=%v", done, err)
					}
					if got.Tally.String() != want.Tally.String() {
						b.Fatalf("tally %s != reference %s", got.Tally, want.Tally)
					}
					srv.Close()
					c.Close()
				}
			})
		}
	}
}
