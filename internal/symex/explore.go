package symex

import (
	"fmt"
	"sort"

	"repro/internal/mdl"
	"repro/internal/mutation"
)

// Exploration is the result of a concolic search.
type Exploration struct {
	// Corpus is the deduplicated set of generated input vectors, in
	// discovery order (the seed first).
	Corpus [][]int64
	// Covered is the union of statement IDs executed.
	Covered map[mdl.NodeID]bool
	// Runs is the number of concolic executions performed.
	Runs int
}

// Explore runs generational concolic search from a seed input: each
// executed path contributes branch-negation candidates; candidates
// that verify symbolically are executed in turn, until the run budget
// is exhausted or no frontier remains. The search is deterministic.
func Explore(p *mdl.Program, fn string, seed []int64, budget int) (*Exploration, error) {
	ex := &Exploration{Covered: map[mdl.NodeID]bool{}}
	seen := map[string]bool{}
	key := func(in []int64) string { return fmt.Sprint(in) }

	queue := [][]int64{append([]int64(nil), seed...)}
	seen[key(seed)] = true

	for len(queue) > 0 && ex.Runs < budget {
		inputs := queue[0]
		queue = queue[1:]
		res, err := Run(p, fn, inputs)
		if err != nil {
			return nil, err
		}
		ex.Runs++
		ex.Corpus = append(ex.Corpus, inputs)
		for id := range res.Covered {
			ex.Covered[id] = true
		}
		// Generational expansion: negate every branch of the path.
		var children [][]int64
		for _, br := range res.Branches {
			children = append(children, solveBranch(br, inputs)...)
		}
		// Deterministic order.
		sort.Slice(children, func(i, j int) bool {
			return key(children[i]) < key(children[j])
		})
		for _, c := range children {
			k := key(c)
			if !seen[k] {
				seen[k] = true
				queue = append(queue, c)
			}
		}
	}
	return ex, nil
}

// ExtendSuite uses concolic exploration to kill surviving mutants —
// the constraint-based automatic test generation of reference [20]:
// the corpus of path-splitting inputs is replayed against every
// surviving mutant, and any input whose mutant output differs from
// the golden output joins the suite.
func ExtendSuite(p *mdl.Program, fn string, tests []mutation.Test, seed []int64, budget int) ([]mutation.Test, *mutation.Report, error) {
	before, err := mutation.Qualify(p, tests)
	if err != nil {
		return nil, nil, err
	}
	if len(before.Survivors()) == 0 {
		return tests, before, nil
	}
	ex, err := Explore(p, fn, seed, budget)
	if err != nil {
		return nil, nil, err
	}

	golden := mdl.NewInterp(p)
	goldenOut := make([]int64, len(ex.Corpus))
	goldenErr := make([]bool, len(ex.Corpus))
	for i, in := range ex.Corpus {
		v, err := golden.Call(fn, in...)
		goldenOut[i] = v
		goldenErr[i] = err != nil
	}

	suite := append([]mutation.Test(nil), tests...)
	added := map[string]bool{}
	for _, m := range before.Survivors() {
		mi := mdl.NewInterp(p)
		mut := m.Mut
		mi.SetMutation(&mut)
		for i, in := range ex.Corpus {
			if goldenErr[i] {
				continue
			}
			v, err := mi.Call(fn, in...)
			if err == nil && v == goldenOut[i] {
				continue
			}
			k := fmt.Sprint(in)
			if !added[k] {
				added[k] = true
				suite = append(suite, mutation.Test{Fn: fn, Args: append([]int64(nil), in...)})
			}
			break
		}
	}
	after, err := mutation.Qualify(p, suite)
	if err != nil {
		return nil, nil, err
	}
	return suite, after, nil
}
