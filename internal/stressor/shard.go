package stressor

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/sim"
)

// Shard selects one partition of a campaign's scenario universe so
// that Count independent invocations — separate processes, separate
// machines — together cover exactly the runs one unsharded invocation
// would execute. The partition is applied AFTER dedup, so duplicate
// folding is identical on every shard and the merged result is
// byte-identical to the unsharded run. It follows injection time: the
// unique-run positions, ordered by their earliest fault Start, then
// the first fault's content, then position, are cut into Count
// contiguous ranges (shard 0 the earliest) of the sizes ShardSizes
// reports. Faults injected close together share a golden prefix and,
// one family's adjacent instants, a fork window, so a shard keeps the
// checkpoint-tree hits and window answers an unsharded run gets.
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

// Partition is the rule a journal of this shard records in its header
// (journal.Header.Partition): none when unsharded.
func (s Shard) Partition() string {
	if s.Enabled() {
		return journal.PartitionInjectionTime
	}
	return ""
}

// shardOwners maps every unique-run position of d to the shard of count
// that runs it (see Shard).
func shardOwners(d dedupPlan, count int) []int {
	n := d.len()
	order := make([]int, n)
	for u := range order {
		order[u] = u
	}
	var none fault.Descriptor
	key := func(u int) (sim.Time, *fault.Descriptor) {
		sc := d.scenario(u)
		if len(sc.Faults) == 0 {
			return 0, &none
		}
		start := sc.Faults[0].Start
		for _, f := range sc.Faults[1:] {
			start = min(start, f.Start)
		}
		return start, &sc.Faults[0]
	}
	slices.SortFunc(order, func(ui, uj int) int {
		si, fi := key(ui)
		sj, fj := key(uj)
		return cmp.Or(cmp.Compare(si, sj), compareContent(fi, fj), cmp.Compare(ui, uj))
	})
	owner := make([]int, n)
	for s, lo := 0, 0; s < count; s++ {
		hi := lo + shardLen(n, count, s)
		for _, u := range order[lo:hi] {
			owner[u] = s
		}
		lo = hi
	}
	return owner
}

// shardLen is how many of n positions shard s of count owns: the first
// n%count shards hold one more than the rest.
func shardLen(n, count, s int) int {
	if s < n%count {
		return n/count + 1
	}
	return n / count
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
	n := newDedupPlan(scenarios, dedup).len()
	for s := range sizes {
		sizes[s] = shardLen(n, len(sizes), s)
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
