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
	return MergeHashed(spec, scenarios, UniverseHash(scenarios), js)
}

// MergeHashed is Merge for a caller that already holds
// UniverseHash(scenarios) as universe, and so need not pay for it again.
func MergeHashed(spec MergeSpec, scenarios []fault.Scenario, universe string, js []*journal.Journal) (*Result, error) {
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
	want.Adaptive, want.Total, want.Universe = false, len(scenarios), universe
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

	c := &Campaign{Name: h0.Campaign, StopOnFirst: spec.StopOnFirst, Dedup: spec.Dedup}
	set := &ShardSet{e: newExec(c, scenarios), recorded: make([]int, h0.Shards)}
	for _, j := range js {
		if _, err := set.Add(j.Header.Shard, j.Entries, nil); err != nil {
			return nil, fmt.Errorf("stressor: merging shard %d/%d: %w", j.Header.Shard, h0.Shards, err)
		}
	}
	e := set.e
	// A hole is a position left to run at or below the first failure.
	if l := newListPlan(e); l.unclaimed() {
		u := l.todo[0]
		return nil, fmt.Errorf("stressor: scenario %s (index %d) missing from the journals — shard %d/%d is incomplete (interrupted? resume it first)", e.dedup.scenario(u).ID, e.dedup.index(u), shardOf(e.dedup, h0, u), h0.Shards)
	}
	res := c.assemble(e.dedup.fanOut(e.slots))
	res.DedupSavedRuns = len(scenarios) - e.dedup.len()
	return res, nil
}

// shardOf names the shard of h's set that position u of plan belongs
// to, under the partition rule the set was written with.
func shardOf(plan dedupPlan, h journal.Header, u int) int {
	switch {
	case h.Shards <= 1:
		return 0
	case h.Rule() == journal.PartitionRoundRobin:
		return u % h.Shards
	}
	return shardOwners(plan, h.Shards)[u]
}
