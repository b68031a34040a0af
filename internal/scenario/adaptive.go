// Adaptive exploration: the outcome-signature novelty strategy a
// campaign drives as its stressor.Campaign.Source. Every
// simulated run carries a 64-bit equivalence-class signature (final
// model state folded with the classification — sim.StateSignature /
// sim.MixSignature); a signature never seen before means the run ended
// somewhere new in behavior space, and the strategy reacts by mutating
// the scenario that got there — retimed injections, neighboring sites,
// neighboring models, and fault-pair escalation — instead of spending
// budget re-discovering outcomes it already has. This is the feedback
// arc of the paper's Fig. 3 loop made concrete: the error-effect
// simulation's observations steer the next injections.
package scenario

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/fault"
	"repro/internal/sim"
)

// SignatureIndex tracks the distinct outcome signatures a campaign has
// produced. The zero signature means "not computed" and is never
// novel. Not safe for concurrent use — the adaptive engine serializes
// Observe delivery, which is what makes novelty deterministic.
type SignatureIndex struct {
	seen map[uint64]struct{}
}

// NewSignatureIndex returns an empty index.
func NewSignatureIndex() *SignatureIndex {
	return &SignatureIndex{seen: make(map[uint64]struct{})}
}

// Note records sig and reports whether it was novel (first occurrence
// of a non-zero signature).
func (x *SignatureIndex) Note(sig uint64) bool {
	if sig == 0 {
		return false
	}
	if _, ok := x.seen[sig]; ok {
		return false
	}
	x.seen[sig] = struct{}{}
	return true
}

// Mutator derives neighbor descriptors from a parent, navigating the
// valid (target, model) lattice of a fault universe rather than a free
// cross-product — a universe only enumerates combinations its runner
// can actually inject, and a mutant outside it would just die as a
// campaign error. Five moves, all content-preserving except for the
// mutated dimension:
//
//   - retime: same fault, new start instant (the one dimension not
//     bounded by the universe — drawn from Starts when provided, e.g.
//     ATPG-derived activation corners, else uniformly from [0, Window))
//   - remodel: another universe descriptor at the same target
//   - retarget: another universe descriptor with the same model
//   - rebit: same target and model, another bit position (bit-level
//     fault models only; bits 0-7, the range every injector accepts —
//     byte-addressed TLM memories reject anything higher)
//   - reparam: same target and model, the analog parameter scaled by a
//     random factor (parameterized models only — drift magnitudes the
//     finite universe cannot enumerate)
//
// The bit and parameter moves are what let the adaptive loop out-yield
// blind sampling: they explore fault dimensions the fixed universe
// quantizes to a single representative value.
type Mutator struct {
	universe []fault.Descriptor
	byTarget map[string][]int
	byModel  map[fault.Model][]int
	rng      *rand.Rand
	serial   int
	// prov maps a mutant name to the (parent model, move) arm that
	// created it until the outcome comes back and Credit resolves it
	// into trials/wins.
	prov map[string]creditKey
	// trials/wins drive the novelty-credit move selection: each
	// observed mutant counts a trial for its (model, move) arm, each
	// novel one a win, and chooseMove draws moves weighted by
	// Laplace-smoothed success rate. The arm is model-conditioned
	// because move value is model-dependent: retiming a permanent
	// stuck-at converges to the same absorbing state (the arm fades),
	// while retiming a timed bus fault or rescaling an analog drift
	// keeps finding new behavior (those arms take over the budget).
	trials, wins map[creditKey]int

	// Window bounds retime draws when Starts is empty; zero disables
	// retiming entirely.
	Window sim.Time
	// Starts, when non-empty, is the retime candidate pool (ATPG
	// corners, coverage-hole instants). Draws are uniform over it.
	Starts []sim.Time
}

// NewMutator indexes a universe for mutation. The rng is the sole
// source of randomness, so a fixed seed makes the mutation stream
// deterministic.
func NewMutator(universe []fault.Descriptor, rng *rand.Rand) *Mutator {
	m := &Mutator{
		universe: universe,
		byTarget: make(map[string][]int),
		byModel:  make(map[fault.Model][]int),
		rng:      rng,
		prov:     make(map[string]creditKey),
		trials:   make(map[creditKey]int),
		wins:     make(map[creditKey]int),
	}
	for i, d := range universe {
		m.byTarget[d.Target] = append(m.byTarget[d.Target], i)
		m.byModel[d.Model] = append(m.byModel[d.Model], i)
	}
	return m
}

// retime returns a fresh start instant, or d.Start when retiming is
// disabled.
func (m *Mutator) retime(d fault.Descriptor) sim.Time {
	if len(m.Starts) > 0 {
		return m.Starts[m.rng.Intn(len(m.Starts))]
	}
	if m.Window > 0 {
		return sim.Time(m.rng.Int63n(int64(m.Window)))
	}
	return d.Start
}

// pick draws a universe descriptor from idxs that differs from parent
// in target or model, returning ok=false when none exists.
func (m *Mutator) pick(idxs []int, parent fault.Descriptor) (fault.Descriptor, bool) {
	if len(idxs) == 0 {
		return fault.Descriptor{}, false
	}
	for retry := 0; retry < 4; retry++ {
		d := m.universe[idxs[m.rng.Intn(len(idxs))]]
		if d.Target != parent.Target || d.Model != parent.Model {
			return d, true
		}
	}
	return fault.Descriptor{}, false
}

// Mutation moves.
const (
	moveRetime = iota
	moveRemodel
	moveRetarget
	moveRebit
	moveReparam
)

// creditKey identifies one bandit arm: a mutation move applied to a
// parent of a given fault model.
type creditKey struct {
	md fault.Model
	mv int
}

// bitAddressed reports whether the model interprets Descriptor.Bit.
func bitAddressed(md fault.Model) bool {
	switch md {
	case fault.BitFlip, fault.StuckAt0, fault.StuckAt1:
		return true
	}
	return false
}

// chooseMove draws one move applicable to parent, weighted by the
// (parent model, move) arm's observed novelty yield
// ((wins+0.5)/(trials+1) — optimistic for unexplored arms, sharply
// suppressed after repeated failures). ok=false when no move applies.
func (m *Mutator) chooseMove(parent fault.Descriptor) (int, bool) {
	var moves []int
	var weights []float64
	add := func(mv int) {
		k := creditKey{parent.Model, mv}
		moves = append(moves, mv)
		weights = append(weights, (float64(m.wins[k])+0.5)/(float64(m.trials[k])+1))
	}
	if len(m.Starts) > 0 || m.Window > 0 {
		add(moveRetime)
	}
	if len(m.byTarget[parent.Target]) > 1 {
		add(moveRemodel)
	}
	if len(m.byModel[parent.Model]) > 1 {
		add(moveRetarget)
	}
	if bitAddressed(parent.Model) {
		add(moveRebit)
	}
	if parent.Param != 0 {
		add(moveReparam)
	}
	if len(moves) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	r := m.rng.Float64() * sum
	for i, w := range weights {
		if r < w {
			return moves[i], true
		}
		r -= w
	}
	return moves[len(moves)-1], true
}

// Credit resolves a mutant's outcome into its move's trial/win record
// (no-op for non-mutant names). Novelty calls this for every observed
// fault, novel or not — that asymmetry is the learning signal.
func (m *Mutator) Credit(name string, novel bool) {
	k, ok := m.prov[name]
	if !ok {
		return
	}
	delete(m.prov, name)
	m.trials[k]++
	if novel {
		m.wins[k]++
	}
}

// Mutate derives up to n neighbors of parent, drawing moves by their
// novelty credit. Fewer than n come back when the lattice offers no
// neighbor for a drawn move (single-model universe, no window,
// non-bit non-parameterized model).
func (m *Mutator) Mutate(parent fault.Descriptor, n int) []fault.Descriptor {
	var out []fault.Descriptor
	for i := 0; i < n; i++ {
		mv, any := m.chooseMove(parent)
		if !any {
			break
		}
		var d fault.Descriptor
		ok := false
		switch mv {
		case moveRetime: // same fault, new start instant
			d, ok = parent, true
			d.Start = m.retime(parent)
		case moveRemodel: // same target, different universe entry
			if d, ok = m.pick(m.byTarget[parent.Target], parent); ok {
				d.Start = m.retime(d)
			}
		case moveRetarget: // same model, different site
			if d, ok = m.pick(m.byModel[parent.Model], parent); ok {
				d.Start = m.retime(d)
			}
		case moveRebit: // same cell, another bit position
			d, ok = parent, true
			d.Bit = uint(m.rng.Intn(8))
			if d.Bit == parent.Bit {
				d.Bit = (d.Bit + 1) % 8
			}
			d.Start = m.retime(d)
		case moveReparam: // same cell, scaled analog parameter
			d, ok = parent, true
			d.Param = parent.Param * (0.25 + 3.75*m.rng.Float64())
			d.Start = m.retime(d)
		}
		if !ok {
			continue
		}
		m.serial++
		d.Name = fmt.Sprintf("%s~m%d", parent.Name, m.serial)
		m.prov[d.Name] = creditKey{parent.Model, mv}
		out = append(out, d)
	}
	return out
}

// Novelty is the adaptive strategy: seed the whole universe first
// (exhaustive single-fault coverage is the floor — it is what Monte
// Carlo squanders budget failing to reach), then spend the remaining
// budget on descendants of runs whose signatures were novel. Novel
// outcomes trigger mutation (via the Mutator lattice moves) and pair
// escalation — the novel descriptor combined with an earlier novel one,
// probing dual-point interactions outside the single-fault universe.
// When the mutation queue runs dry before the budget does (pipeline
// lag, barren region), Next falls back to mutating the novel pool
// round-robin so the scenario stream never stalls.
//
// Determinism: all randomness flows from the constructor's rng, and
// the adaptive engine delivers Observe calls in proposal order, so a
// fixed seed yields one canonical scenario stream regardless of worker
// count.
type Novelty struct {
	universe []fault.Descriptor
	budget   int
	produced int
	seedNext int
	queue    []fault.Scenario
	sigs     *SignatureIndex
	mut      *Mutator
	novel    []fault.Descriptor
	rrNovel  int // fallback round-robin cursor
	pairRot  int // pair-escalation partner cursor

	// MutantsPerNovel is how many lattice mutants each novel outcome
	// enqueues (default 3, one per move kind).
	MutantsPerNovel int
	// MaxQueue bounds the pending-scenario queue so a novelty burst
	// cannot grow memory without bound; excess descendants are dropped
	// oldest-parent-first (default 1024).
	MaxQueue int
}

// NewNovelty creates the strategy over a universe with a total
// proposal budget. The rng seeds both mutation and retiming; Window
// and Starts configure the mutator's retime move.
func NewNovelty(universe []fault.Descriptor, budget int, rng *rand.Rand) *Novelty {
	return &Novelty{
		universe:        universe,
		budget:          budget,
		sigs:            NewSignatureIndex(),
		mut:             NewMutator(universe, rng),
		MutantsPerNovel: 3,
		MaxQueue:        1024,
	}
}

// Mutator exposes the strategy's mutator for retime configuration
// (Window, Starts).
func (n *Novelty) Mutator() *Mutator { return n.mut }

// Next implements stressor.ScenarioSource.
func (n *Novelty) Next() (fault.Scenario, bool) {
	if n.produced >= n.budget {
		return fault.Scenario{}, false
	}
	n.produced++
	// Phase 1: the universe itself, in order.
	if n.seedNext < len(n.universe) {
		d := n.universe[n.seedNext]
		n.seedNext++
		return fault.Single(d), true
	}
	// Phase 2: novelty-directed descendants, newest first — a novel
	// outcome's own descendants are probed before older, staler ones
	// (depth-first novelty chasing, the schedule coverage-guided
	// fuzzers converge on).
	if len(n.queue) > 0 {
		sc := n.queue[len(n.queue)-1]
		n.queue = n.queue[:len(n.queue)-1]
		sc.ID = fmt.Sprintf("nv-%d", n.produced)
		return sc, true
	}
	// Fallback: the queue drained (Observe feedback lags the proposal
	// window, or mutation went barren) — keep probing around the novel
	// pool, or failing that the universe, round-robin.
	pool := n.novel
	if len(pool) == 0 {
		pool = n.universe
	}
	if len(pool) == 0 {
		n.produced--
		return fault.Scenario{}, false
	}
	parent := pool[n.rrNovel%len(pool)]
	n.rrNovel++
	for _, d := range n.mut.Mutate(parent, 1) {
		return fault.Scenario{ID: fmt.Sprintf("nv-%d", n.produced), Faults: []fault.Descriptor{d}}, true
	}
	// Mutation-disabled corner (no window, single-cell universe):
	// re-propose the parent itself rather than stalling the stream.
	return fault.Scenario{ID: fmt.Sprintf("nv-%d", n.produced), Faults: []fault.Descriptor{parent}}, true
}

// enqueue appends a descendant scenario, honoring MaxQueue.
func (n *Novelty) enqueue(sc fault.Scenario) {
	if n.MaxQueue > 0 && len(n.queue) >= n.MaxQueue {
		return
	}
	n.queue = append(n.queue, sc)
}

// Observe implements stressor.ScenarioSource: every outcome credits the mutation
// move that produced it (the bandit's learning signal); novel
// signatures additionally spawn descendants.
func (n *Novelty) Observe(o fault.Outcome) {
	novel := n.sigs.Note(o.Signature)
	for _, d := range o.Scenario.Faults {
		n.mut.Credit(d.Name, novel)
	}
	if !novel {
		return
	}
	for _, d := range o.Scenario.Faults {
		// Lattice mutants of the descriptor that reached a new outcome.
		for _, m := range n.mut.Mutate(d, n.MutantsPerNovel) {
			n.enqueue(fault.Scenario{Faults: []fault.Descriptor{m}})
		}
		// Pair escalation: combine with an earlier novel descriptor —
		// dual-point scenarios reach behavior the single-fault universe
		// cannot, which is where unique-outcome yield past the
		// exhaustive floor comes from.
		if len(n.novel) > 0 {
			p := n.novel[n.pairRot%len(n.novel)]
			n.pairRot++
			if p.Target != d.Target || p.Model != d.Model || p.Start != d.Start {
				a, b := d, p
				a.Name += "+0"
				b.Name += "+1"
				n.enqueue(fault.Scenario{Faults: []fault.Descriptor{a, b}})
			}
		}
		n.novel = append(n.novel, d)
	}
}

// StartsFromCorpus maps concolic-exploration input vectors (e.g.
// symex.Exploration.Corpus) to injection instants inside [0, window):
// corpus values are scaled proportionally over the window (value v of
// observed maximum mx lands at window*v/(mx+1)), so the corners the
// solver found spread across the whole horizon instead of clustering
// in the first few ticks. The result is deduplicated and sorted, so
// equal corpora yield equal retime pools — this is how ATPG-style
// activation analysis seeds the adaptive mutator without the scenario
// package importing the symbolic engine.
func StartsFromCorpus(corpus [][]int64, window sim.Time) []sim.Time {
	if window <= 0 {
		return nil
	}
	var mx int64
	for _, vec := range corpus {
		for _, v := range vec {
			if v < 0 {
				v = -v
			}
			if v > mx {
				mx = v
			}
		}
	}
	seen := make(map[sim.Time]bool)
	var out []sim.Time
	for _, vec := range corpus {
		for _, v := range vec {
			if v < 0 {
				v = -v
			}
			t := sim.Time(float64(window) * float64(v) / float64(mx+1))
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
