package stressor

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fault"
	"repro/internal/sim"
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

// universePlan is what a list Execute derives from its universe before
// anything runs: the unique-run positions, their dispatch order and
// fork-window families, and, once asked for, the shard owners and views
// of the last shard count and the fingerprint. Execute, Merge and a
// ShardSet all build it with newUniversePlan, so every shard and every
// merge agrees on the positions journals and the partition are keyed
// by. A Checkpointer keeps the plans of the lists it dispatches sorted
// (planCache), so that the next Execute of the same universe on it
// derives nothing; a kept plan also holds its key, a copy of that
// universe (matches). A plan holds positions only, never a caller's
// slice: bind and view attach the scenarios of the Execute at hand. Once
// built it changes only in the fields mu guards and the fingerprint,
// computed once.
type universePlan struct {
	dedup bool // the Dedup it was made under, part of the key
	// uniq and pos are the unique-run positions (dedupPlan).
	uniq, pos []int
	// order holds every position in dispatch order, nil for index order,
	// and family the fork-window family of each (sortPositions), nil when
	// no family has two members.
	order  []int
	family []int32

	// The key, set when a cache keeps the plan: the scenario IDs and the
	// universe's faults, scenario i's ending at ends[i].
	ids    []string
	ends   []int
	faults []fault.Descriptor

	fpOnce sync.Once
	fp     string // the universe's UniverseHash

	mu         sync.Mutex
	byTime     []int       // every position in partition order; nil before any count
	ownerCount int         // the shard count owners and views are for; 0 before any
	owners     []int       // each position's shard
	views      []shardView // every shard's view, unbound
}

// newUniversePlan plans scenarios under dedup: the first occurrence of
// each distinct fault content is the representative that runs, every
// later one is folded into it; positions are dispatched by fork (nil:
// index order).
func newUniversePlan(scenarios []fault.Scenario, dedup bool, fork func(fault.Scenario) sim.Time) *universePlan {
	p := &universePlan{dedup: dedup}
	if dedup {
		pos := make([]int, len(scenarios))
		var uniq []int
		seen := newContentIndex(len(scenarios))
		for i, sc := range scenarios {
			u, added := seen.put(sc.Faults, contentDigest(sc.Faults))
			if added {
				uniq = append(uniq, i)
			}
			pos[i] = u
		}
		if len(uniq) < len(scenarios) {
			p.uniq, p.pos = uniq, pos
		}
	}
	if fork != nil {
		p.order, p.family = sortPositions(p.bind(scenarios), fork, true)
	}
	return p
}

// bind is p's positions over scenarios, the universe p was made for.
func (p *universePlan) bind(scenarios []fault.Scenario) dedupPlan {
	return dedupPlan{scenarios: scenarios, uniq: p.uniq, pos: p.pos}
}

// view is shard sh's view of scenarios, the universe p was made for:
// every position unsharded, else the positions sh owns; either in p's
// dispatch order.
func (p *universePlan) view(scenarios []fault.Scenario, sh Shard) shardView {
	if !sh.Enabled() {
		return shardView{own: p.bind(scenarios), order: p.order, family: p.family}
	}
	_, views := p.cut(scenarios, sh.Count)
	v := views[sh.Index]
	v.own.scenarios = scenarios
	return v
}

// cut is the owners and views of count shards of scenarios, the universe
// p was made for (see Shard): the positions in partition order — by
// earliest fault Start (ForkTime, not a host's), sorted the first time
// any count is asked for — cut into count ranges. It keeps those of the
// last count asked for only, so a plan holds one owner map whatever
// counts it is asked for.
func (p *universePlan) cut(scenarios []fault.Scenario, count int) (owners []int, views []shardView) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ownerCount != count {
		if p.byTime == nil {
			p.byTime, _ = sortPositions(p.bind(scenarios), ForkTime, false)
		}
		p.owners, p.ownerCount = make([]int, len(p.byTime)), count
		for s, lo := 0, 0; s < count; s++ {
			hi := lo + shardLen(len(p.owners), count, s)
			for _, u := range p.byTime[lo:hi] {
				p.owners[u] = s
			}
			lo = hi
		}
		p.views = p.shardViews()
	}
	return p.owners, p.views
}

// fingerprint is UniverseHash(scenarios) for the universe p was made
// for, hashed once: a list a kept plan matches agrees with the one it
// was hashed over in every field the hash reads. Without a plan (p nil)
// it is hashed afresh.
func (p *universePlan) fingerprint(scenarios []fault.Scenario) string {
	if p == nil {
		return UniverseHash(scenarios)
	}
	p.fpOnce.Do(func() { p.fp = UniverseHash(scenarios) })
	return p.fp
}

// setKey copies the key p is matched by from scenarios, the universe p
// was made for. The IDs' and names' bytes are shared: strings never
// change.
func (p *universePlan) setKey(scenarios []fault.Scenario) {
	n := 0
	for _, sc := range scenarios {
		n += len(sc.Faults)
	}
	p.ids, p.ends, p.faults = make([]string, len(scenarios)), make([]int, len(scenarios)), make([]fault.Descriptor, 0, n)
	for i, sc := range scenarios {
		p.ids[i] = sc.ID
		p.faults = append(p.faults, sc.Faults...)
		p.ends[i] = len(p.faults)
	}
}

// matches reports whether the kept plan p was made for scenarios under
// dedup: the same IDs, each scenario with the same number of faults,
// each equal to the kept copy in every field (sameDescriptor). That is
// everything the positions, the dispatch order, the owners and the
// fingerprint are functions of, so a rebuilt universe matches and one
// mutated in place does not. A digest (UniverseHash) would cost more
// than the sorts it saves, and the slice's identity can neither see an
// in-place mutation nor find a rebuilt universe.
func (p *universePlan) matches(scenarios []fault.Scenario, dedup bool) bool {
	if p.dedup != dedup || len(p.ids) != len(scenarios) {
		return false
	}
	lo := 0
	for i := range scenarios {
		sc, kept := &scenarios[i], p.faults[lo:p.ends[i]]
		if sc.ID != p.ids[i] || len(kept) != len(sc.Faults) {
			return false
		}
		for j := range kept {
			if !sameDescriptor(&kept[j], &sc.Faults[j]) {
				return false
			}
		}
		lo = p.ends[i]
	}
	return true
}

// sameDescriptor reports whether two descriptors agree in every field:
// struct equality, so a field fault.Descriptor gains is compared too.
// Param and Rate compare as a dedup key spells them: -0 is not 0, and a
// NaN matches nothing, so a universe holding one is planned afresh.
func sameDescriptor(a, b *fault.Descriptor) bool {
	return *a == *b && math.Signbit(a.Param) == math.Signbit(b.Param) && math.Signbit(a.Rate) == math.Signbit(b.Rate)
}

// dedupPlan is a plan's unique-run positions bound to one Execute's
// scenarios (universePlan.bind). Without Dedup — or when nothing folds —
// positions are the scenario indices themselves.
type dedupPlan struct {
	scenarios []fault.Scenario
	// uniq lists the representatives' scenario indices by position and
	// pos the position of every scenario's representative; both are nil
	// when positions are scenario indices.
	uniq, pos []int
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

// shardView is the part of a list universe's unique-run positions one
// Execute holds slots for, and the order it dispatches them in. Unsharded
// it is the bound plan itself; a shard's own is the positions it owns,
// ascending, slot k running the representative own.index(k) — own.uniq,
// never nil, lists their scenario indices, and own has no pos, so only
// len, index and scenario apply to it.
type shardView struct {
	own dedupPlan
	// order lists own's positions in dispatch order; nil is index order.
	// family is each one's fork-window family (universePlan.family), nil
	// when the plan keeps none.
	order  []int
	family []int32
}

// shardViews is every shard's view of p's positions under its owners,
// each dispatching its positions in p's order and keeping their
// families. The views are unbound: own holds no scenarios. p.mu is held.
func (p *universePlan) shardViews() []shardView {
	owners, count, order, family, d := p.owners, p.ownerCount, p.order, p.family, p.bind(nil)
	views := make([]shardView, count)
	indices := make([]int, len(owners)) // every view's own.uniq, shard by shard
	var orders, slot []int              // every view's order; each position's slot in its view
	var families []int32                // every view's family
	if order != nil {
		orders, slot = make([]int, len(owners)), make([]int, len(owners))
	}
	if family != nil {
		families = make([]int32, len(owners))
	}
	for s, lo := 0, 0; s < count; s++ {
		hi := lo + shardLen(len(owners), count, s)
		views[s].own.uniq = indices[lo:lo:hi]
		if order != nil {
			views[s].order = orders[lo:lo:hi]
		}
		if family != nil {
			views[s].family = families[lo:lo:hi]
		}
		lo = hi
	}
	for u, s := range owners {
		v := &views[s]
		if slot != nil {
			slot[u] = len(v.own.uniq)
		}
		v.own.uniq = append(v.own.uniq, d.index(u))
	}
	for i, u := range order {
		v := &views[owners[u]]
		v.order = append(v.order, slot[u])
		if family != nil {
			v.family = append(v.family, family[i])
		}
	}
	return views
}

// sortPositions lists d's unique-run positions ordered by at(scenario),
// then by the scenario's first fault's content, then by position. The
// order is total, so it needs no stable sort, and filtering it gives any
// subset of the positions its own sorted order. With families, family
// numbers each position of order by its fork-window family: a run of
// neighbours with one at and one single permanent fault of one content
// (windowKeyOf), all a session's window memo tells apart. family is nil
// without families or when no family has two members.
func sortPositions(d dedupPlan, at func(fault.Scenario) sim.Time, families bool) (order []int, family []int32) {
	// Each position's key, read once: a comparison then touches neither
	// the dedup plan nor the scenario.
	type key struct {
		at    sim.Time
		first *fault.Descriptor
		u     int
		keyed bool // a single permanent fault
	}
	var none fault.Descriptor
	keys := make([]key, d.len())
	for u := range keys {
		sc := d.scenario(u)
		keys[u] = key{at: at(sc), first: &none, u: u}
		if len(sc.Faults) > 0 {
			keys[u].first = &sc.Faults[0]
			keys[u].keyed = len(sc.Faults) == 1 && sc.Faults[0].Class == fault.Permanent
		}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		if o := compareContent(a.first, b.first); o != 0 {
			return o
		}
		return cmp.Compare(a.u, b.u)
	})
	order = make([]int, len(keys))
	family = make([]int32, len(keys))
	shared := false // some family has two members
	for i, k := range keys {
		order[i] = k.u
		if i == 0 {
			continue
		}
		family[i] = family[i-1]
		if prev := keys[i-1]; families && k.keyed && prev.keyed && k.at == prev.at && contentOf(k.first) == contentOf(prev.first) {
			shared = true
		} else {
			family[i]++
		}
	}
	if !shared {
		family = nil
	}
	return order, family
}

// compareContent orders two descriptors by everything but Name: target,
// class and model — which tell most families apart — then the rest of
// the content, Start last. It returns at the first field that differs.
func compareContent(a, b *fault.Descriptor) int {
	if o := strings.Compare(a.Target, b.Target); o != 0 {
		return o
	}
	if a.Class != b.Class {
		return cmp.Compare(a.Class, b.Class)
	}
	if a.Model != b.Model {
		return cmp.Compare(a.Model, b.Model)
	}
	if a.Domain != b.Domain {
		return cmp.Compare(a.Domain, b.Domain)
	}
	if a.Bit != b.Bit {
		return cmp.Compare(a.Bit, b.Bit)
	}
	if a.Address != b.Address {
		return cmp.Compare(a.Address, b.Address)
	}
	// cmp.Compare, not !=: a NaN sorts before every number and equals
	// itself, and -0 equals 0.
	if o := cmp.Compare(a.Param, b.Param); o != 0 {
		return o
	}
	if a.Duration != b.Duration {
		return cmp.Compare(a.Duration, b.Duration)
	}
	if a.Period != b.Period {
		return cmp.Compare(a.Period, b.Period)
	}
	if o := cmp.Compare(a.Rate, b.Rate); o != 0 {
		return o
	}
	return cmp.Compare(a.Start, b.Start)
}

// content is a fault's content minus Name and Start — all an injector
// may depend on besides model state (fault.Injector) — as one comparable
// value: the window memo's key and the family test's.
type content struct {
	d fault.Descriptor // Name, Start, Param and Rate zeroed
	// param and rate are the floats' bits, so -0 and every NaN stay apart.
	param, rate uint64
}

func contentOf(d *fault.Descriptor) content {
	c := content{d: *d, param: math.Float64bits(d.Param), rate: math.Float64bits(d.Rate)}
	c.d.Name, c.d.Start, c.d.Param, c.d.Rate = "", 0, 0, 0
	return c
}

// contentIndex files scenarios by fault content — every descriptor
// field except the name, fault by fault in order — the equality Dedup
// folds a list by and a Dedup source's memo answers a proposal by. It
// keys each content's Mix64 digest (contentDigest) to chained entry
// positions and confirms a hit field by field (sameContent), so two
// contents are one exactly when their appendDescKey spellings,
// ';'-joined, are one string: -0 is not 0, every NaN is every other
// NaN, and fault order counts. Entry i is the i-th content filed. Find
// and put allocate nothing but the table's amortized growth.
type contentIndex struct {
	heads   []int32 // by digest's low bits, 1 + the bucket's newest entry; 0 for none
	entries []contentEntry
}

type contentEntry struct {
	digest uint64
	faults []fault.Descriptor
	next   int32 // 1 + the bucket's entry filed before this one; 0 for none
}

// newContentIndex is an index sized for n contents.
func newContentIndex(n int) *contentIndex {
	x := &contentIndex{entries: make([]contentEntry, 0, n)}
	x.rehash(max(n, 8))
	return x
}

// find is the position of the content of faults, whose digest is
// digest; ok is false when none was filed, or x is nil.
func (x *contentIndex) find(faults []fault.Descriptor, digest uint64) (i int, ok bool) {
	if x == nil {
		return 0, false
	}
	for e := x.heads[digest&uint64(len(x.heads)-1)]; e != 0; e = x.entries[e-1].next {
		if en := &x.entries[e-1]; en.digest == digest && sameContent(en.faults, faults) {
			return int(e - 1), true
		}
	}
	return 0, false
}

// put is find, filing faults as the next entry when its content is new
// (added). The index keeps faults, not a copy.
func (x *contentIndex) put(faults []fault.Descriptor, digest uint64) (i int, added bool) {
	if i, ok := x.find(faults, digest); ok {
		return i, false
	}
	i = len(x.entries)
	if i >= len(x.heads) {
		x.rehash(2 * len(x.heads))
	}
	b := digest & uint64(len(x.heads)-1)
	x.entries = append(x.entries, contentEntry{digest: digest, faults: faults, next: x.heads[b]})
	x.heads[b] = int32(i + 1)
	return i, true
}

// rehash refiles every entry in n buckets, n a power of two.
func (x *contentIndex) rehash(n int) {
	x.heads = make([]int32, 1<<bits.Len(uint(n-1)))
	for i := range x.entries {
		b := x.entries[i].digest & uint64(len(x.heads)-1)
		x.entries[i].next, x.heads[b] = x.heads[b], int32(i+1)
	}
}

// contentDigest is the Mix64 digest of the fault content of faults (see
// contentIndex): every field but the name, a fault after another, a NaN
// folded as every NaN.
func contentDigest(faults []fault.Descriptor) uint64 {
	h := sim.NewStateHash()
	for i := range faults {
		d := &faults[i]
		h.U64(uint64(d.Model) | uint64(d.Class)<<8 | uint64(d.Domain)<<16)
		h.Str(d.Target)
		h.U64(uint64(d.Bit))
		h.U64(d.Address)
		h.U64(floatKey(d.Param))
		h.Time(d.Start)
		h.Time(d.Duration)
		h.Time(d.Period)
		h.U64(floatKey(d.Rate))
	}
	return h.Sum()
}

// floatKey is f's bits, every NaN's one NaN's: the float equality of
// appendDescKey's spelling.
func floatKey(f float64) uint64 {
	if f != f {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// sameContent reports whether a and b hold one fault content: the same
// faults in the same order, every field but the name equal, the floats
// as floatKey compares them.
func sameContent(a, b []fault.Descriptor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Model != y.Model || x.Class != y.Class || x.Domain != y.Domain || x.Target != y.Target ||
			x.Bit != y.Bit || x.Address != y.Address || x.Start != y.Start || x.Duration != y.Duration ||
			x.Period != y.Period || floatKey(x.Param) != floatKey(y.Param) || floatKey(x.Rate) != floatKey(y.Rate) {
			return false
		}
	}
	return true
}
