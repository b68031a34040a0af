package caps

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/stressor"
)

// BenchmarkCampaignPlan measures what an Execute of a caps-perm-sweep
// universe — the permanent single-fault universe at 304 instants drawn
// one per stratum of [1 ms, 76 ms), 6 384 scenarios — costs before
// anything runs: validation, the dispatch order and, as one of 8 shards,
// the shard owners. Halt stops every campaign before it hands out a run.
// A first-seen plan is of a universe the host has not planned before
// (each iteration moves one Start by a picosecond); a warm one is of the
// universe the previous iteration planned.
func BenchmarkCampaignPlan(b *testing.B) {
	r, err := NewRunner(Protected(), NormalDriving(), sim.MS(80))
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	const instants, stratum = 304, 75000 / 304 // µs
	rng := rand.New(rand.NewSource(1))
	at := make([]sim.Time, instants)
	for i := range at {
		at[i] = sim.MS(1) + sim.Time(i*stratum+rng.Intn(stratum))*sim.Microsecond
	}
	rng.Shuffle(len(at), func(i, j int) { at[i], at[j] = at[j], at[i] })
	scenarios := permanentSweep(r, at...)
	if len(scenarios) != 6384 {
		b.Fatalf("%d scenarios, want 6384", len(scenarios))
	}
	moved := &scenarios[0].Faults[0].Start
	for _, seen := range []string{"first-seen", "warm"} {
		for _, sh := range []stressor.Shard{{}, {Index: 0, Count: 8}} {
			shards := "unsharded"
			if sh.Enabled() {
				shards = fmt.Sprintf("%d-sharded", sh.Count)
			}
			b.Run(seen+"/"+shards, func(b *testing.B) {
				c := &stressor.Campaign{Name: "plan", Checkpointer: r, Shard: sh, Halt: func(int) bool { return true }}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if seen == "first-seen" {
						*moved++
					}
					if _, err := c.Execute(scenarios); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
