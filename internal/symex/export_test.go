package symex

import "repro/internal/mdl"

// CoverageFraction reports covered statements over all statements of
// the program.
func (e *Exploration) CoverageFraction(p *mdl.Program) float64 {
	all := mdl.CollectStmtIDs(p)
	if len(all) == 0 {
		return 1
	}
	n := 0
	for _, id := range all {
		if e.Covered[id] {
			n++
		}
	}
	return float64(n) / float64(len(all))
}
