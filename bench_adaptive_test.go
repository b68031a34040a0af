package govp

// BenchmarkCampaignAdaptive regenerates the PR's headline claim: at an
// equal simulated-run budget over the E8-derived CAPS universe, the
// adaptive campaign — Novelty strategy steered by real state
// signatures, concolic-derived injection times, equivalence pruning —
// uncovers at least twice the unique outcome signatures of blind
// Monte-Carlo sampling. Monte-Carlo wastes budget re-drawing
// signature-equivalent cells of the universe; the adaptive loop prunes
// those for free and spends the saved runs mutating around the
// scenarios that produced novel behavior.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/campaignd"
	"repro/internal/caps"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stressor"
)

func BenchmarkCampaignAdaptive(b *testing.B) {
	const budget = 100
	horizon := sim.MS(30)
	newRunner := func() *caps.Runner {
		r, err := caps.NewRunner(caps.Protected(), caps.NormalDriving(), horizon)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	universe := func(r *caps.Runner) []fault.Descriptor { return r.Universe(sim.MS(10)) }

	// uniqueSigs runs one budgeted campaign with the given source and
	// counts distinct outcome signatures.
	uniqueSigs := func(r *caps.Runner, src stressor.ScenarioSource, prune bool) int {
		c := &stressor.Campaign{
			Name: "bench-adaptive", Run: r.RunScenarioSigned, Source: src,
			Workers: stressor.WorkersAuto, MaxRuns: budget, Dedup: prune,
		}
		res, err := c.Execute(nil)
		if err != nil {
			b.Fatal(err)
		}
		return res.Adaptive.UniqueSignatures
	}

	modes := []struct {
		name string
		run  func(r *caps.Runner, seed int64) int
	}{
		{"montecarlo", func(r *caps.Runner, seed int64) int {
			mc := scenario.NewMonteCarlo(universe(r), budget, rand.New(rand.NewSource(seed)))
			mc.Window = horizon
			return uniqueSigs(r, mc, false)
		}},
		{"adaptive", func(r *caps.Runner, seed int64) int {
			return uniqueSigs(r, campaignd.NewNovelty(universe(r), budget, seed, horizon), true)
		}},
	}
	yield := map[string]int{}
	for _, m := range modes {
		b.Run(fmt.Sprintf("%s/budget=%d", m.name, budget), func(b *testing.B) {
			r := newRunner()
			defer r.Close()
			b.ReportAllocs()
			b.ResetTimer()
			var sigs int
			for i := 0; i < b.N; i++ {
				sigs = m.run(r, 1)
			}
			b.StopTimer()
			yield[m.name] = sigs
			b.ReportMetric(float64(sigs), "unique_sigs")
			b.ReportMetric(float64(budget), "runs")
		})
	}
	if mc, ad := yield["montecarlo"], yield["adaptive"]; ad < 2*mc {
		b.Fatalf("adaptive yield %d unique signatures < 2x monte-carlo %d at budget %d", ad, mc, budget)
	}
}
