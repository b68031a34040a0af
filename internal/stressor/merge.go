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
// the unsharded run would have produced, byte for byte. Outcomes are
// placed by scenario index, so a set cut by either partition rule
// merges, as long as one rule cut all of it. It validates everything
// first — format, matching headers and partition rule, the exact shard
// set {0..N-1}, the universe fingerprint, per-entry scenario IDs — and
// refuses adaptive journals (their entry indices are proposal sequence
// numbers, not universe positions), truncated journals (resume them to
// completion first) and incomplete coverage, so a partial or
// mismatched set can never be silently merged.
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
	// Every journal must be a fixed-universe shard of the first one's
	// campaign, layout and partition rule, over this universe.
	h0 := js[0].Header
	want := h0
	want.Adaptive, want.Total, want.Universe = false, len(scenarios), universe
	seen := make([]bool, h0.Shards)
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
	for s, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("stressor: shard %d/%d is missing", s, h0.Shards)
		}
	}

	// Rebuild the exact dedup plan the shards computed, then place
	// every journaled outcome at its unique-run position.
	plan := newDedupPlan(scenarios, spec.Dedup)
	slots := make([]slot, plan.len())
	for _, j := range js {
		for _, ent := range j.Entries {
			if scenarios[ent.Index].ID != ent.ID {
				return nil, fmt.Errorf("stressor: shard %d journal entry %d is scenario %q, universe has %q", j.Header.Shard, ent.Index, ent.ID, scenarios[ent.Index].ID)
			}
			u, ok := plan.position(ent.Index)
			if !ok {
				return nil, fmt.Errorf("stressor: shard %d journal entry %d is not a dedup representative (journals written without dedup?)", j.Header.Shard, ent.Index)
			}
			cls, ok := fault.ParseClassification(ent.Class)
			if !ok {
				return nil, fmt.Errorf("stressor: shard %d journal entry %d has unknown class %q", j.Header.Shard, ent.Index, ent.Class)
			}
			if s := slots[u]; s.ran && (s.out.Class != cls || s.out.Detail != ent.Detail || s.panicked != ent.Panicked) {
				return nil, fmt.Errorf("stressor: scenario %s (index %d) recorded twice with different outcomes", ent.ID, ent.Index)
			}
			slots[u] = slot{
				out: fault.Outcome{Scenario: plan.scenario(u), Class: cls, Detail: ent.Detail},
				ran: true, panicked: ent.Panicked,
			}
		}
	}

	// Completeness: without StopOnFirst every unique position must be
	// covered; with it, every position up to the global first failure
	// must be — a gap below the cutoff means some shard is incomplete.
	stop := len(slots)
	if spec.StopOnFirst {
		for u, s := range slots {
			if s.ran && s.out.Class.IsFailure() {
				stop = u
				break
			}
		}
	}
	for u := 0; u < len(slots) && u <= stop; u++ {
		if !slots[u].ran {
			return nil, fmt.Errorf("stressor: scenario %s (index %d) missing from the journals — shard %d/%d is incomplete (interrupted? resume it first)", plan.scenario(u).ID, plan.index(u), shardOf(plan, h0, u), h0.Shards)
		}
	}

	c := &Campaign{Name: h0.Campaign, StopOnFirst: spec.StopOnFirst}
	res := c.assemble(plan.fanOut(slots))
	res.DedupSavedRuns = len(scenarios) - plan.len()
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
