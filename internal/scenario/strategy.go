// Package scenario implements injection-space exploration strategies
// for error-effect simulation campaigns: Monte-Carlo sampling, the
// weak-spot-guided systematic search the paper argues for in Sec. 3.4
// ("Standard Monte-Carlo techniques may fail to identify the critical
// error effects ... a systematic approach is required that stresses the
// system at its possible weak spots") and signature novelty. Each is a
// stressor.ScenarioSource: a stressor.Campaign drives it, and experiment
// E4 compares the first two head to head.
package scenario

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/fault"
	"repro/internal/sim"
)

// MonteCarlo samples the universe uniformly with random start times —
// the standard technique whose rare-event blindness E4 demonstrates.
type MonteCarlo struct {
	universe []fault.Descriptor
	rng      *rand.Rand
	budget   int
	produced int
	// Window randomizes each fault's start within [0, Window).
	Window sim.Time
	// MultiFault > 1 samples that many simultaneous faults per
	// scenario.
	MultiFault int
}

// NewMonteCarlo creates the strategy with a run budget.
func NewMonteCarlo(universe []fault.Descriptor, budget int, rng *rand.Rand) *MonteCarlo {
	return &MonteCarlo{universe: universe, budget: budget, rng: rng, MultiFault: 1}
}

// mcResampleRetries bounds how often MonteCarlo redraws a fault that
// duplicates one already in the scenario under construction. On a tiny
// universe every draw may collide; after the retries run out the
// duplicate is kept so Next stays total.
const mcResampleRetries = 8

// Next implements stressor.ScenarioSource; it returns false once the
// budget is spent.
func (m *MonteCarlo) Next() (fault.Scenario, bool) {
	if m.produced >= m.budget || len(m.universe) == 0 {
		return fault.Scenario{}, false
	}
	m.produced++
	n := m.MultiFault
	if n < 1 {
		n = 1
	}
	sc := fault.Scenario{ID: fmt.Sprintf("mc-%d", m.produced)}
	sample := func() fault.Descriptor {
		d := m.universe[m.rng.Intn(len(m.universe))]
		if m.Window > 0 {
			d.Start = sim.Time(m.rng.Int63n(int64(m.Window)))
		}
		return d
	}
	dup := func(d fault.Descriptor) bool {
		for _, have := range sc.Faults {
			if have.Target == d.Target && have.Model == d.Model && have.Start == d.Start {
				return true
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		d := sample()
		// A multi-fault scenario injecting the same (target, model,
		// start) twice is just the single fault with extra bookkeeping —
		// redraw, bounded.
		for retry := 0; retry < mcResampleRetries && dup(d); retry++ {
			d = sample()
		}
		if n > 1 {
			// Disambiguate names only when a scenario really carries
			// several faults; a single-fault sample keeps its universe
			// name so outcomes map back to the fault list directly.
			d.Name = fmt.Sprintf("%s#%d", d.Name, i)
		}
		sc.Faults = append(sc.Faults, d)
	}
	return sc, true
}

// Observe implements stressor.ScenarioSource (Monte Carlo does not
// adapt).
func (m *MonteCarlo) Observe(fault.Outcome) {}

// Guided is the systematic weak-spot strategy: phase 1 sweeps every
// single fault once (establishing per-site severity); phase 2
// escalates to pair scenarios concentrated on the sites with the worst
// observed outcomes, where protection mechanisms are most likely to be
// bypassed by a second fault. This mirrors the paper's prescription to
// identify weak spots "by analysis of error propagation, error
// masking, and error recovery by protection mechanisms".
type Guided struct {
	universe []fault.Descriptor
	budget   int
	produced int

	bySite   map[string][]fault.Descriptor
	severity map[string]int
	lastSc   fault.Scenario
	phase1   int // index into universe
	pairs    []pairIdx
	pairsGen bool
	// TopSites bounds how many weak sites phase 2 combines.
	TopSites int
}

type pairIdx struct{ a, b fault.Descriptor }

// NewGuided creates the strategy with a total run budget.
func NewGuided(universe []fault.Descriptor, budget int) *Guided {
	g := &Guided{
		universe: universe,
		budget:   budget,
		bySite:   make(map[string][]fault.Descriptor),
		severity: make(map[string]int),
		TopSites: 4,
	}
	for _, d := range universe {
		g.bySite[d.Target] = append(g.bySite[d.Target], d)
	}
	return g
}

// Next implements stressor.ScenarioSource: the single-fault sweep, then
// the weak-spot pairs, until the budget or the pairs run out.
func (g *Guided) Next() (fault.Scenario, bool) {
	if g.produced >= g.budget {
		return fault.Scenario{}, false
	}
	// Phase 1: one run per universe entry.
	if g.phase1 < len(g.universe) {
		d := g.universe[g.phase1]
		g.phase1++
		g.produced++
		g.lastSc = fault.Single(d)
		return g.lastSc, true
	}
	// Phase 2: pair scenarios on the worst sites.
	if !g.pairsGen {
		g.generatePairs()
	}
	if len(g.pairs) == 0 {
		return fault.Scenario{}, false
	}
	p := g.pairs[0]
	g.pairs = g.pairs[1:]
	g.produced++
	a, b := p.a, p.b
	a.Name += "+0"
	b.Name += "+1"
	g.lastSc = fault.Scenario{
		ID:     fmt.Sprintf("guided-pair-%d", g.produced),
		Faults: []fault.Descriptor{a, b},
	}
	return g.lastSc, true
}

// generatePairs ranks sites by observed severity and emits all fault
// pairs across the top sites.
func (g *Guided) generatePairs() {
	g.pairsGen = true
	type siteSev struct {
		site string
		sev  int
	}
	ranked := make([]siteSev, 0, len(g.bySite))
	for s := range g.bySite {
		ranked = append(ranked, siteSev{s, g.severity[s]})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].sev != ranked[j].sev {
			return ranked[i].sev > ranked[j].sev
		}
		return ranked[i].site < ranked[j].site
	})
	top := ranked
	if len(top) > g.TopSites {
		top = top[:g.TopSites]
	}
	for i := 0; i < len(top); i++ {
		for j := i; j < len(top); j++ {
			da, db := g.bySite[top[i].site], g.bySite[top[j].site]
			for ai, a := range da {
				for bi, b := range db {
					if i == j && bi <= ai {
						// Same-site pairs are unordered — {a,b} injects the
						// same fault set as {b,a} — so emit only the upper
						// triangle (bi > ai also skips the a==a diagonal).
						continue
					}
					if a.Target == b.Target && a.Model == b.Model {
						continue
					}
					g.pairs = append(g.pairs, pairIdx{a, b})
				}
			}
		}
	}
}

// Observe implements stressor.ScenarioSource: track worst severity per
// site.
func (g *Guided) Observe(o fault.Outcome) {
	sev := o.Class.Severity()
	for _, d := range o.Scenario.Faults {
		if sev > g.severity[d.Target] {
			g.severity[d.Target] = sev
		}
	}
}
