package stressor

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/journal"
)

// Shard selects one partition of a campaign's scenario universe so
// that Count independent invocations — separate processes, separate
// machines — together cover exactly the runs one unsharded invocation
// would execute. The partition is applied AFTER dedup, so duplicate
// folding is identical on every shard and the merged result is
// byte-identical to the unsharded run. It follows injection time: the
// unique-run positions, ordered by their earliest fault Start, then
// the first fault's content, then position, are cut into Count
// contiguous ranges (shard 0 the earliest) of the sizes ShardSet.Owned
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

// JournalHeader is the header of this shard's journal of a campaign
// over total scenarios with the given universe fingerprint — for
// Campaign.JournalHeader, a fabric coordinator's shard journals and a
// worker's resume prefix alike. A sharded header names the partition
// rule; an unsharded one is shard 0/1 and names none.
func (s Shard) JournalHeader(campaign string, total int, universe string) journal.Header {
	h := journal.Header{Campaign: campaign, Shard: s.Index, Shards: max(s.Count, 1), Total: total, Universe: universe}
	if s.Enabled() {
		h.Partition = journal.PartitionInjectionTime
	}
	return h
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

// ErrConflict marks Add's refusal of a run recorded with two outcomes.
var ErrConflict = errors.New("twice with different outcomes")

// ErrIncomplete marks AddLast's refusal of a batch that would leave its
// shard short of the runs it owns.
var ErrIncomplete = errors.New("done short of the runs it owns")

// ShardSet is the one path from journal entries to results, for
// Execute's resume, Merge and a fabric coordinator's flushes and restart
// alike: the unsharded campaign's slots, fed shard by shard, and what
// each shard recorded. A repeat is folded whichever shard sends it. A
// complete set assembles into the unsharded campaign's Result (Result).
type ShardSet struct {
	e        *campaignExec
	recorded []int
	rule     string // the partition rule the shards were cut by
	fresh    []int  // Add's scratch: batch indices of new entries
}

// NewShardSet is the empty set of count shards of the named campaign,
// cut by injection time.
func NewShardSet(name string, scenarios []fault.Scenario, dedup bool, count int) *ShardSet {
	return &ShardSet{
		e:        newExec(&Campaign{Name: name, Dedup: dedup}, scenarios),
		recorded: make([]int, max(count, 1)),
		rule:     journal.PartitionInjectionTime,
	}
}

// Add checks the whole batch before it records any of it — each entry
// in range, naming the scenario at its index, at a dedup representative,
// with a known class, and no run recorded twice with another class,
// detail or panicked (an error wrapping ErrConflict) — then records each
// entry new to the set once keep accepts it (a nil keep accepts all),
// folding exact repeats. It returns how many it recorded and keep's error.
// The entry of a run a sharded resume does not hold a slot for — another
// shard's — is checked like any and then dropped.
func (s *ShardSet) Add(shard int, entries []journal.Entry, keep func(journal.Entry) error) (int, error) {
	return s.add(shard, entries, false, false, keep)
}

// AddLast is Add for the batch a shard says it is done with. It records
// nothing, refusing the batch with an error wrapping ErrIncomplete,
// unless with it the shard has recorded as many runs as it owns (the
// rule a coordinator adopts a journal left at restart by) or, under
// stopOnFirst, every position it owns up to a failure: a StopOnFirst
// shard runs its positions in index order and stops at its first
// failure.
func (s *ShardSet) AddLast(shard int, entries []journal.Entry, stopOnFirst bool, keep func(journal.Entry) error) (int, error) {
	return s.add(shard, entries, true, stopOnFirst, keep)
}

func (s *ShardSet) add(shard int, entries []journal.Entry, last, stopOnFirst bool, keep func(journal.Entry) error) (int, error) {
	name, d, fresh := s.e.c.Name, s.e.dedup, s.fresh[:0]
	var dropped map[int]*slot // another shard's runs, by position
	var err error
	for i, ent := range entries {
		if ent.Index < 0 || ent.Index >= len(d.scenarios) {
			err = fmt.Errorf("campaign %s: journal entry index %d out of range 0..%d", name, ent.Index, len(d.scenarios)-1)
			break
		}
		sc := d.scenarios[ent.Index]
		u, rep := d.position(ent.Index)
		cls, known := fault.ParseClassification(ent.Class)
		switch {
		case sc.ID != ent.ID:
			err = fmt.Errorf("campaign %s: journal entry %d is scenario %q, universe has %q", name, ent.Index, ent.ID, sc.ID)
		case !rep:
			err = fmt.Errorf("campaign %s: journal entry %d is not a dedup representative (journal written without dedup?)", name, ent.Index)
		case !known:
			err = fmt.Errorf("campaign %s: journal entry %d has unknown class %q", name, ent.Index, ent.Class)
		}
		if err != nil {
			break
		}
		sl := s.e.slotOf(u)
		own := sl != nil
		if !own {
			if sl = dropped[u]; sl == nil {
				if dropped == nil {
					dropped = map[int]*slot{}
				}
				sl = new(slot)
				dropped[u] = sl
			}
		}
		switch {
		case !sl.ran:
			*sl = slot{out: fault.Outcome{Scenario: sc, Class: cls, Detail: ent.Detail}, ran: true, panicked: ent.Panicked}
			if own {
				fresh = append(fresh, i)
			}
		case sl.out.Class != cls || sl.out.Detail != ent.Detail || sl.panicked != ent.Panicked:
			err = fmt.Errorf("campaign %s: journal records scenario %s (index %d) %w", name, ent.ID, ent.Index, ErrConflict)
		}
		if err != nil {
			break
		}
	}
	if err == nil && last && s.recorded[shard]+len(fresh) < s.Owned(shard) && !(stopOnFirst && s.heldToFailure(shard)) {
		err = fmt.Errorf("campaign %s: shard %d %w: %d of %d recorded", name, shard, ErrIncomplete, s.recorded[shard]+len(fresh), s.Owned(shard))
	}
	n := len(fresh) // recorded: the new entries before any keep refused
	if err != nil {
		n = 0
	} else if keep != nil {
		for n = 0; n < len(fresh); n++ {
			if err = keep(entries[fresh[n]]); err != nil {
				break
			}
		}
	}
	for _, i := range fresh[n:] {
		u, _ := d.position(entries[i].Index)
		*s.e.slotOf(u) = slot{}
	}
	s.fresh, s.recorded[shard] = fresh, s.recorded[shard]+n
	return n, err
}

// heldToFailure reports whether the slots hold every position shard
// owns, in index order, up to one that failed.
func (s *ShardSet) heldToFailure(shard int) bool {
	owner := s.owner()
	for u := range s.e.slots {
		switch sl := &s.e.slots[u]; {
		case owner(u) != shard:
		case !sl.ran:
			return false
		case sl.out.Class.IsFailure():
			return true
		}
	}
	return false
}

// owner maps each position of the set's universe to the shard that owns
// it under the set's partition rule; the injection-time owners are its
// plan's.
func (s *ShardSet) owner() func(u int) int {
	count := len(s.recorded)
	if s.rule == journal.PartitionRoundRobin {
		return func(u int) int { return u % count }
	}
	owners, _ := s.e.plan.cut(s.e.dedup.scenarios, count)
	return func(u int) int { return owners[u] }
}

// Recorded is how many runs shard has recorded.
func (s *ShardSet) Recorded(shard int) int { return s.recorded[shard] }

// Owned is how many unique-run positions shard owns: the runs it journals.
func (s *ShardSet) Owned(shard int) int { return shardLen(s.e.dedup.len(), len(s.recorded), shard) }

// Result assembles the set into the Result the unsharded campaign would
// have produced, byte for byte, under stopOnFirst's semantics: duplicates
// fanned out from their representatives, outcomes in scenario order. It
// refuses a set with a hole — a position missing at or below the first
// failure, naming the shard that owns it — as the unsharded campaign
// would still have had to run it.
func (s *ShardSet) Result(stopOnFirst bool) (*Result, error) {
	e, count := s.e, len(s.recorded)
	for u := range e.slots {
		if sl := &e.slots[u]; !sl.ran {
			return nil, fmt.Errorf("stressor: scenario %s (index %d) missing from the journals — shard %d/%d is incomplete (interrupted? resume it first)", e.dedup.scenario(u).ID, e.dedup.index(u), s.owner()(u), count)
		} else if stopOnFirst && sl.out.Class.IsFailure() {
			break
		}
	}
	c := Campaign{Name: e.c.Name, StopOnFirst: stopOnFirst}
	res := c.assemble(e.fanOut())
	res.DedupSavedRuns = len(e.dedup.scenarios) - e.dedup.len()
	return res, nil
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
