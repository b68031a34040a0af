package stressor

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/journal"
)

// MergeSpec carries the campaign settings that shape a merged result.
// They must match what the shards ran with: StopOnFirst selects the
// truncate-at-first-failure semantics, Dedup must mirror the shards'
// setting so representative indices line up.
type MergeSpec struct {
	StopOnFirst bool
	Dedup       bool
}

// Merge folds the journals of a completed shard set into the Result
// the unsharded run would have produced, byte for byte. It checks the
// set — exactly Shards untruncated fixed-universe journals of one
// campaign, layout and partition rule over this universe, no shard
// twice — then adds each journal to one ShardSet, as the unsharded
// campaign's resume adds its journal, and refuses what that campaign
// would still have to run. Outcomes are placed by scenario index, so a set
// cut by either partition rule merges, as long as one rule cut all of
// it. Adaptive journals are refused: they index proposals, not scenarios.
//
// StopOnFirst composes across shards: each shard stops at its own
// first failure, which sits at or after the global first failure f,
// and every position up to f is covered by its owning shard — so the
// merged assemble truncates at f exactly as the unsharded run would,
// and surplus runs past f are discarded.
func Merge(spec MergeSpec, scenarios []fault.Scenario, js []*journal.Journal) (*Result, error) {
	if len(js) == 0 {
		return nil, fmt.Errorf("stressor: merge of zero journals")
	}
	// A complete set holds exactly Shards journals, checked before the
	// header's count sizes anything.
	h0 := js[0].Header
	if len(js) != h0.Shards {
		return nil, fmt.Errorf("stressor: %d journals for a %d-shard set", len(js), h0.Shards)
	}
	want := h0
	want.Adaptive, want.Total, want.Universe = false, len(scenarios), UniverseHash(scenarios)
	seen := make([]bool, len(js))
	for _, j := range js {
		h := j.Header
		want.Shard = h.Shard
		if err := h.Match(want); err != nil {
			return nil, fmt.Errorf("stressor: merging shard %d/%d: %w", h.Shard, h.Shards, err)
		}
		if j.Truncated {
			return nil, fmt.Errorf("stressor: journal for shard %d/%d is truncated — resume it to completion before merging", h.Shard, h.Shards)
		}
		if seen[h.Shard] {
			return nil, fmt.Errorf("stressor: shard %d appears twice", h.Shard)
		}
		seen[h.Shard] = true
	}

	set := NewShardSet(h0.Campaign, scenarios, spec.Dedup, h0.Shards)
	set.rule = h0.Rule()
	for _, j := range js {
		if _, err := set.Add(j.Header.Shard, j.Entries, nil); err != nil {
			return nil, fmt.Errorf("stressor: merging shard %d/%d: %w", j.Header.Shard, h0.Shards, err)
		}
	}
	return set.Result(spec.StopOnFirst)
}
