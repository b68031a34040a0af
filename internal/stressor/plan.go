package stressor

import (
	"strconv"

	"repro/internal/fault"
)

// appendDescKey appends every descriptor field except the name — the
// fault content that determines a deterministic run's outcome — as
// "%v|%v|%v|%s|%d|%d|%g|%d|%d|%d|%g" would print it (journals and dedup
// keys written before this stopped going through fmt hold those bytes;
// TestDescKeyMatchesFmt keeps the two spellings equal).
func appendDescKey(b []byte, d fault.Descriptor) []byte {
	b = append(append(b, d.Model.String()...), '|')
	b = append(append(b, d.Class.String()...), '|')
	b = append(append(b, d.Domain.String()...), '|')
	b = append(append(b, d.Target...), '|')
	b = append(strconv.AppendUint(b, uint64(d.Bit), 10), '|')
	b = append(strconv.AppendUint(b, d.Address, 10), '|')
	b = append(strconv.AppendFloat(b, d.Param, 'g', -1, 64), '|')
	b = append(strconv.AppendUint(b, uint64(d.Start), 10), '|')
	b = append(strconv.AppendUint(b, uint64(d.Duration), 10), '|')
	b = append(strconv.AppendUint(b, uint64(d.Period), 10), '|')
	return strconv.AppendFloat(b, d.Rate, 'g', -1, 64)
}

// keyScratch holds a single-fault key on the stack, so building one
// allocates only the string it returns.
type keyScratch [160]byte

// scenarioContentKey serializes a scenario's fault content (descriptor
// fields except names) — the key Dedup folds a list by and memoizes a
// source's delivered outcomes under.
func scenarioContentKey(sc fault.Scenario) string {
	var scratch keyScratch
	b := scratch[:0]
	for _, d := range sc.Faults {
		b = append(appendDescKey(b, d), ';')
	}
	return string(b)
}

// dedupPlan maps between a scenario universe and its unique-run
// positions: the first occurrence of each distinct fault content is
// the representative that runs, every later one is folded into it.
// Execute, Merge and a ShardSet all build it from the same inputs, so
// every shard and every merge agrees on the positions journals and the
// shard partition are keyed by. Without Dedup — or when nothing folds —
// positions are the scenario indices themselves.
type dedupPlan struct {
	scenarios []fault.Scenario
	// uniq lists the representatives' scenario indices by position and
	// pos the position of every scenario's representative; both are nil
	// when positions are scenario indices.
	uniq, pos []int
}

func newDedupPlan(scenarios []fault.Scenario, dedup bool) dedupPlan {
	p := dedupPlan{scenarios: scenarios}
	if !dedup {
		return p
	}
	pos := make([]int, len(scenarios))
	var uniq []int
	seen := make(map[string]int, len(scenarios))
	for i, sc := range scenarios {
		key := scenarioContentKey(sc)
		u, ok := seen[key]
		if !ok {
			u = len(uniq)
			seen[key] = u
			uniq = append(uniq, i)
		}
		pos[i] = u
	}
	if len(uniq) < len(scenarios) {
		p.uniq, p.pos = uniq, pos
	}
	return p
}

// len is the number of unique-run positions.
func (p dedupPlan) len() int {
	if p.uniq != nil {
		return len(p.uniq)
	}
	return len(p.scenarios)
}

// index maps position u to its scenario index in the full universe —
// the index space journals are keyed by.
func (p dedupPlan) index(u int) int {
	if p.uniq != nil {
		return p.uniq[u]
	}
	return u
}

// scenario is the scenario that runs at position u.
func (p dedupPlan) scenario(u int) fault.Scenario { return p.scenarios[p.index(u)] }

// position maps scenario index i back to its position; ok is false for
// a folded duplicate, which has none of its own.
func (p dedupPlan) position(i int) (u int, ok bool) {
	if p.uniq == nil {
		return i, true
	}
	u = p.pos[i]
	return u, p.uniq[u] == i
}

// fanOut expands per-position slots to per-scenario slots. Each
// duplicate inherits its representative's outcome with its own Scenario
// stamped in; representatives past a StopOnFirst cutoff never ran, so
// their duplicates stay un-ran too.
func (p dedupPlan) fanOut(slots []slot) []slot {
	if p.uniq == nil {
		return slots
	}
	full := make([]slot, len(p.scenarios))
	for i, sc := range p.scenarios {
		if s := slots[p.pos[i]]; s.ran {
			s.out.Scenario = sc
			full[i] = s
		}
	}
	return full
}
