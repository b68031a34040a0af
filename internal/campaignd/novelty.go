package campaignd

import (
	"math/rand"
	"sync"

	"repro/internal/fault"
	"repro/internal/mdl"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/symex"
)

// noveltyGuard is the small MDL guard model whose concolic exploration
// seeds the adaptive mutator's retime pool.
const noveltyGuard = `
func clamp(v) {
  if v > 12 {
    return 12
  }
  return v
}
func guard(a, t) {
  if clamp(a) * 3 - t == 17 {
    return 1
  }
  if a - t > 9 {
    return 2
  }
  return 0
}`

// guardCorpus is the concolic exploration of noveltyGuard: symex
// negates the model's branches into a corpus of input vectors. Model
// and start vector are constants, so it is explored once per process.
var guardCorpus = sync.OnceValue(func() [][]int64 {
	ex, err := symex.Explore(mdl.MustParse(noveltyGuard), "guard", []int64{0, 0}, 32)
	if err != nil {
		// Only a bug in mdl or symex gets here.
		panic("campaignd: exploring the built-in guard model: " + err.Error())
	}
	return ex.Corpus
})

// NewNovelty builds the scenario source of an adaptive campaign — the
// one recipe behind capsim -adaptive, an "adaptive" spec and the
// adaptive benchmark, so the same budget, seed and horizon propose the
// same stream everywhere. The strategy may propose up to four times the
// simulated-run budget (pruned proposals are free and must not starve
// the stream), retimes mutants inside the horizon, and draws extra
// mutation start times from guardCorpus, folded into injection instants
// by StartsFromCorpus. That is the paper's ATPG link — test vectors
// from symbolic execution seeding the fault campaign.
func NewNovelty(universe []fault.Descriptor, budget int, seed int64, horizon sim.Time) *scenario.Novelty {
	src := scenario.NewNovelty(universe, 4*budget, rand.New(rand.NewSource(seed)))
	src.Mutator().Window = horizon
	src.Mutator().Starts = scenario.StartsFromCorpus(guardCorpus(), horizon)
	return src
}
