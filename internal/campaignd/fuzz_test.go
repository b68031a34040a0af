package campaignd

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzCampaignSpec throws arbitrary bytes at the spec decoder — the
// daemon's untrusted input surface. Invariants: ParseSpec never
// panics; an accepted spec has every parsed knob inside the decoder
// bounds; and an accepted spec survives a marshal/re-parse round trip
// (what the store does across a daemon restart).
func FuzzCampaignSpec(f *testing.F) {
	f.Add([]byte(`{"campaign":"e8","universe":{"kind":"caps-single-fault","horizon":"80ms"},"workers":-1}`))
	f.Add([]byte(`{"universe":{"kind":"inline","horizon":"1ms","scenarios":[{"id":"a","faults":"open @caps.accel0.harness from 100us"}]}}`))
	f.Add([]byte(`{"universe":{"kind":"caps-single-fault","inject":"5ms"},"shard":"0/4","dedup":true,"checkpoints":true}`))
	f.Add([]byte(`{"universe":{},"checkpoint_tree":true,"early_exit":true,"hash_stride":"5ms"}`))
	f.Add([]byte(`{"universe":{},"hash_stride":"5ms"}`))
	f.Add([]byte(`{"universe":{"horizon":"1ms"},"early_exit":true,"hash_stride":"2ms"}`))
	f.Add([]byte(`{"universe":{},"scenario_timeout":"2s","stop_on_first":true}`))
	f.Add([]byte(`{"workers":9999999}`))
	f.Add([]byte(`{"universe":{"kind":"inline","scenarios":[{"id":"a","faults":"gibberish"}]}}`))
	f.Add([]byte(`{"universe":{},"adaptive":true}`))
	f.Add([]byte(`{"universe":{},"adaptive":true,"novelty_budget":128,"novelty_seed":7}`))
	f.Add([]byte(`{"universe":{},"adaptive":true,"dedup":true}`))
	f.Add([]byte(`{"universe":{},"adaptive":true,"shard":"0/2"}`))
	f.Add([]byte(`{"universe":{},"adaptive":true,"scenario_timeout":"2s","trace":true}`))
	f.Add([]byte(`{"universe":{},"novelty_budget":9}`))
	f.Add([]byte(`{"universe":{},"adaptive":true,"novelty_budget":99999999}`))
	f.Add([]byte(`{"universe":{"kind":"inline","scenarios":[{"id":"a","faults":"open @caps.accel0.harness from 1ms"}]},"adaptive":true}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"universe":{}} {"universe":{}}`))
	f.Add([]byte(`{"campaign":"` + strings.Repeat("й", 100) + `","universe":{}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		// Accepted: the parsed knobs respect the documented bounds.
		if spec.Campaign == "" || len(spec.Campaign) > maxNameLen {
			t.Fatalf("accepted campaign name %q outside bounds", spec.Campaign)
		}
		if h := spec.horizon; h <= 0 || h > MaxHorizon {
			t.Fatalf("accepted horizon %d outside bounds", h)
		}
		if spec.Workers > MaxWorkers {
			t.Fatalf("accepted workers %d above cap", spec.Workers)
		}
		if d := spec.timeout; d < 0 || d > MaxScenarioTimeout {
			t.Fatalf("accepted scenario timeout %v outside bounds", d)
		}
		if sh := spec.shard; sh.Count > MaxShardCount {
			t.Fatalf("accepted shard count %d above cap", sh.Count)
		}
		if n := len(spec.Universe.Scenarios); n > MaxInlineScenarios {
			t.Fatalf("accepted %d inline scenarios above cap", n)
		}
		if spec.Adaptive {
			if spec.NoveltyBudget < 1 || spec.NoveltyBudget > MaxNoveltyBudget {
				t.Fatalf("accepted novelty budget %d outside bounds", spec.NoveltyBudget)
			}
			if spec.Dedup || spec.StopOnFirst || spec.Shard != "" {
				t.Fatal("accepted adaptive spec combined with knobs the engine refuses next to a Source")
			}
			if spec.Inline() {
				t.Fatal("accepted adaptive spec over an inline universe")
			}
		} else if spec.NoveltyBudget != 0 || spec.NoveltySeed != 0 {
			t.Fatal("accepted novelty knobs without adaptive")
		}
		// RunnerKey must be total on accepted specs.
		if spec.RunnerKey() == "" {
			t.Fatal("empty runner key for accepted spec")
		}
		// Round trip: the defaulted spec re-marshals to a spec the
		// decoder accepts again and parses identically.
		remarshaled, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal of accepted spec: %v", err)
		}
		again, err := ParseSpec(remarshaled)
		if err != nil {
			t.Fatalf("re-parse of marshaled spec %s: %v", remarshaled, err)
		}
		if again.RunnerKey() != spec.RunnerKey() || again.horizon != spec.horizon ||
			again.shard != spec.shard || again.timeout != spec.timeout ||
			again.HashStride != spec.HashStride || again.Checkpoints != spec.Checkpoints || again.CheckpointTree != spec.CheckpointTree ||
			again.EarlyExit != spec.EarlyExit || again.Adaptive != spec.Adaptive ||
			again.NoveltyBudget != spec.NoveltyBudget || again.NoveltySeed != spec.NoveltySeed {
			t.Fatalf("round trip changed the spec: %s", remarshaled)
		}
	})
}
