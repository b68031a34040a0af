package stressor

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"repro/internal/fault"
)

// Shard selects one partition of a campaign's scenario universe so
// that Count independent invocations — separate processes, separate
// machines — together cover exactly the runs one unsharded invocation
// would execute. The partition is applied AFTER dedup: shards split
// the unique-run positions round-robin (position u belongs to shard
// u mod Count), so duplicate folding is identical on every shard and
// the merged result is byte-identical to the unsharded run.
//
// The zero value (and any Count <= 1) means unsharded.
type Shard struct {
	// Index is this invocation's shard number, 0-based.
	Index int
	// Count is the total number of shards.
	Count int
}

// Enabled reports whether the shard actually partitions (Count > 1).
func (s Shard) Enabled() bool { return s.Count > 1 }

// validate reports structural problems; the zero value is valid.
func (s Shard) validate() error {
	switch {
	case s.Count == 0 && s.Index == 0:
		return nil
	case s.Count < 1:
		return fmt.Errorf("shard count %d, want >= 1", s.Count)
	case s.Index < 0 || s.Index >= s.Count:
		return fmt.Errorf("shard index %d out of range 0..%d", s.Index, s.Count-1)
	}
	return nil
}

// owns reports whether unique-run position u belongs to this shard.
func (s Shard) owns(u int) bool {
	return s.Count <= 1 || u%s.Count == s.Index
}

// String renders the shard in the "i/N" command-line syntax.
func (s Shard) String() string {
	if s.Count <= 1 {
		return "0/1"
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// ParseShard parses the "i/N" command-line syntax (e.g. "0/4").
func ParseShard(s string) (Shard, error) {
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("stressor: bad shard %q, want i/N (e.g. 0/4)", s)
	}
	idx, err1 := strconv.Atoi(i)
	cnt, err2 := strconv.Atoi(n)
	if err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("stressor: bad shard %q, want i/N (e.g. 0/4)", s)
	}
	sh := Shard{Index: idx, Count: cnt}
	// The struct zero value means "unsharded", but the textual form
	// must always be explicit: "0/0" is a typo, not a campaign.
	if cnt < 1 {
		return Shard{}, fmt.Errorf("stressor: shard count %d, want >= 1", cnt)
	}
	if err := sh.validate(); err != nil {
		return Shard{}, fmt.Errorf("stressor: %w", err)
	}
	return sh, nil
}

// ShardSizes returns how many unique-run positions each of count shards
// owns under the given dedup setting — the number of runs that shard
// executes and journals; their sum is the whole campaign's. Distributed
// coordinators size shard progress with it, from one dedup plan and
// without re-deriving the engine's partition rules.
func ShardSizes(scenarios []fault.Scenario, dedup bool, count int) []int {
	sizes := make([]int, max(count, 1))
	for u, n := 0, newDedupPlan(scenarios, dedup).len(); u < n; u++ {
		sizes[u%len(sizes)]++ // Shard.owns
	}
	return sizes
}

// UniverseHash fingerprints a scenario universe: IDs, fault names and
// the full fault content of every scenario, in order. Journals carry
// it so a journal can never be resumed or merged against a different
// universe (changed fault list, reordered scenarios, different world).
func UniverseHash(scenarios []fault.Scenario) string {
	h := fnv.New64a()
	var b []byte // one scenario's bytes, reused
	for _, sc := range scenarios {
		b = append(append(b[:0], sc.ID...), 0x00)
		for _, d := range sc.Faults {
			b = append(append(b, d.Name...), 0x01)
			b = append(appendDescKey(b, d), 0x02)
		}
		b = append(b, '\n')
		h.Write(b)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
