// Package safety implements the established system-level dependability
// analyses the paper surveys in Sec. 2.1: Fault Tree Analysis (FTA)
// with minimal cut sets and top-event probability, Failure Mode
// Effects & Diagnostic Analysis (FMEDA) with the ISO 26262 hardware
// architectural metrics (SPFM, LFM, PMHF) and ASIL determination.
//
// These are the analytic baselines the error-effect simulation is
// compared against (experiment E7 checks that a fault tree synthesized
// from simulation matches the analytic one built here).
package safety

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// GateType is the logic of an intermediate fault-tree node.
type GateType uint8

const (
	// GateBasic marks a leaf (basic event) node.
	GateBasic GateType = iota
	// GateAnd fails when all children fail.
	GateAnd
	// GateOr fails when any child fails.
	GateOr
)

// String names the gate type.
func (g GateType) String() string {
	switch g {
	case GateBasic:
		return "basic"
	case GateAnd:
		return "AND"
	case GateOr:
		return "OR"
	default:
		return fmt.Sprintf("GateType(%d)", uint8(g))
	}
}

// Node is one fault-tree node. Basic events carry a probability (per
// mission, or per hour — the tree is unit-agnostic); gates combine
// children. The same basic event (same name) may appear under several
// gates; cut-set analysis handles the repetition correctly.
type Node struct {
	Name     string
	Gate     GateType
	Prob     float64 // basic events only
	Children []*Node
}

// BasicEvent creates a leaf with failure probability p.
func BasicEvent(name string, p float64) *Node {
	return &Node{Name: name, Gate: GateBasic, Prob: p}
}

// And creates an AND gate.
func And(name string, children ...*Node) *Node {
	return &Node{Name: name, Gate: GateAnd, Children: children}
}

// Or creates an OR gate.
func Or(name string, children ...*Node) *Node {
	return &Node{Name: name, Gate: GateOr, Children: children}
}

// Validate checks structural sanity of the tree.
func (n *Node) Validate() error {
	switch n.Gate {
	case GateBasic:
		if n.Prob < 0 || n.Prob > 1 {
			return fmt.Errorf("safety: basic event %s probability %g outside [0,1]", n.Name, n.Prob)
		}
		if len(n.Children) != 0 {
			return fmt.Errorf("safety: basic event %s has children", n.Name)
		}
	case GateAnd, GateOr:
		if len(n.Children) == 0 {
			return fmt.Errorf("safety: gate %s has no children", n.Name)
		}
	}
	for _, c := range n.Children {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CutSet is a set of basic-event names whose joint occurrence causes
// the top event. It is stored sorted.
type CutSet []string

// key renders the canonical form for set comparison.
func (c CutSet) key() string { return strings.Join(c, "\x00") }

// contains reports whether c is a superset of other.
func (c CutSet) containsAll(other CutSet) bool {
	i := 0
	for _, want := range other {
		for i < len(c) && c[i] < want {
			i++
		}
		if i >= len(c) || c[i] != want {
			return false
		}
	}
	return true
}

// MinimalCutSets computes the tree's minimal cut sets by downward
// expansion (MOCUS-style) with absorption.
func (n *Node) MinimalCutSets() []CutSet {
	sets := n.cutSets()
	return minimize(sets)
}

// cutSets expands recursively: a basic event is one singleton set; an
// OR gate unions child expansions; an AND gate forms the cross
// product.
func (n *Node) cutSets() []CutSet {
	switch n.Gate {
	case GateBasic:
		return []CutSet{{n.Name}}
	case GateOr:
		var out []CutSet
		for _, c := range n.Children {
			out = append(out, c.cutSets()...)
		}
		return out
	case GateAnd:
		out := []CutSet{{}}
		for _, c := range n.Children {
			out = crossProduct(out, c.cutSets())
		}
		return out
	default:
		return nil
	}
}

// crossProduct unions every pair of sets from a and b.
func crossProduct(a, b []CutSet) []CutSet {
	out := make([]CutSet, 0, len(a)*len(b))
	for _, x := range a {
		for _, y := range b {
			merged := map[string]bool{}
			for _, e := range x {
				merged[e] = true
			}
			for _, e := range y {
				merged[e] = true
			}
			cs := make(CutSet, 0, len(merged))
			for e := range merged {
				cs = append(cs, e)
			}
			sort.Strings(cs)
			out = append(out, cs)
		}
	}
	return out
}

// MinimizeCutSets removes duplicate and superset cut sets from an
// externally gathered list (e.g. failing fault scenarios observed in
// simulation). Each input set must be sorted.
func MinimizeCutSets(sets []CutSet) []CutSet {
	return minimize(sets)
}

// minimize removes duplicates and supersets.
func minimize(sets []CutSet) []CutSet {
	// Dedup.
	seen := map[string]CutSet{}
	for _, s := range sets {
		seen[s.key()] = s
	}
	uniq := make([]CutSet, 0, len(seen))
	for _, s := range seen {
		uniq = append(uniq, s)
	}
	// Sort by size then lexicographically for determinism.
	sort.Slice(uniq, func(i, j int) bool {
		if len(uniq[i]) != len(uniq[j]) {
			return len(uniq[i]) < len(uniq[j])
		}
		return uniq[i].key() < uniq[j].key()
	})
	var out []CutSet
	for _, s := range uniq {
		minimal := true
		for _, m := range out {
			if s.containsAll(m) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, s)
		}
	}
	return out
}

// basicProbs collects probabilities of all basic events by name
// (repeated events must agree).
func (n *Node) basicProbs(into map[string]float64) error {
	if n.Gate == GateBasic {
		if p, ok := into[n.Name]; ok && p != n.Prob {
			return fmt.Errorf("safety: basic event %s has conflicting probabilities %g and %g", n.Name, p, n.Prob)
		}
		into[n.Name] = n.Prob
		return nil
	}
	for _, c := range n.Children {
		if err := c.basicProbs(into); err != nil {
			return err
		}
	}
	return nil
}

// TopEventProbability computes the probability of the top event from
// the minimal cut sets assuming independent basic events. For up to
// 20 cut sets the inclusion-exclusion expansion is exact; beyond that
// the min-cut upper bound 1-Π(1-P(MCS_i)) is returned (exact when cut
// sets are disjoint, conservative otherwise).
func (n *Node) TopEventProbability() (float64, error) {
	if err := n.Validate(); err != nil {
		return 0, err
	}
	probs := map[string]float64{}
	if err := n.basicProbs(probs); err != nil {
		return 0, err
	}
	mcs := n.MinimalCutSets()
	if len(mcs) <= 20 {
		return inclusionExclusion(mcs, probs), nil
	}
	// Upper bound.
	q := 1.0
	for _, cs := range mcs {
		p := 1.0
		for _, e := range cs {
			p *= probs[e]
		}
		q *= 1 - p
	}
	return 1 - q, nil
}

// inclusionExclusion sums P(union of cut sets) exactly.
func inclusionExclusion(mcs []CutSet, probs map[string]float64) float64 {
	total := 0.0
	n := len(mcs)
	for mask := 1; mask < 1<<uint(n); mask++ {
		union := map[string]bool{}
		bits := 0
		for i := 0; i < n; i++ {
			if mask>>uint(i)&1 == 1 {
				bits++
				for _, e := range mcs[i] {
					union[e] = true
				}
			}
		}
		p := 1.0
		for e := range union {
			p *= probs[e]
		}
		if bits%2 == 1 {
			total += p
		} else {
			total -= p
		}
	}
	return total
}

// Importance ranks basic events by Fussell-Vesely importance: the
// fraction of top-event probability flowing through cut sets that
// contain the event. It returns events sorted by descending
// importance — the analytic "weak spot" list (Sec. 3.4).
func (n *Node) Importance() ([]EventImportance, error) {
	probs := map[string]float64{}
	if err := n.basicProbs(probs); err != nil {
		return nil, err
	}
	top, err := n.TopEventProbability()
	if err != nil {
		return nil, err
	}
	mcs := n.MinimalCutSets()
	contrib := map[string]float64{}
	for _, cs := range mcs {
		p := 1.0
		for _, e := range cs {
			p *= probs[e]
		}
		for _, e := range cs {
			contrib[e] += p
		}
	}
	out := make([]EventImportance, 0, len(contrib))
	for e, c := range contrib {
		fv := 0.0
		if top > 0 {
			fv = math.Min(1, c/top)
		}
		out = append(out, EventImportance{Event: e, FussellVesely: fv})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FussellVesely != out[j].FussellVesely {
			return out[i].FussellVesely > out[j].FussellVesely
		}
		return out[i].Event < out[j].Event
	})
	return out, nil
}

// EventImportance is one entry of the importance ranking.
type EventImportance struct {
	Event         string
	FussellVesely float64
}

// String renders the tree as an indented listing.
func (n *Node) String() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		pad := strings.Repeat("  ", depth)
		switch n.Gate {
		case GateBasic:
			fmt.Fprintf(&b, "%s%s p=%g\n", pad, n.Name, n.Prob)
		default:
			fmt.Fprintf(&b, "%s%s [%s]\n", pad, n.Name, n.Gate)
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}
