package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/caps"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func init() {
	register(Experiment{ID: "E4", Title: "Monte Carlo vs weak-spot-guided injection", Run: runE4})
}

// e4Budget is the per-strategy run budget; e4Seeds the Monte-Carlo
// seed count.
const (
	e4Budget = 300
	e4Seeds  = 5
)

// runE4 searches for the safety-critical error effect of the fully
// protected CAPS system. Every single fault is handled by a
// mechanism; only specific dual-point faults (e.g. a common-cause
// short-to-supply on both redundant sensors) defeat the plausibility
// check and fire the airbag. Monte Carlo samples random fault pairs;
// the guided strategy sweeps singles to rank weak spots, then
// concentrates pair scenarios on them. Each strategy is the Source of
// its own campaign; the engine keeps a few proposals outstanding, so
// Guided ranks its weak spots on the singles observed by the time it
// proposes its first pair.
//
// Paper anchor (Sec. 3.4): "Standard Monte-Carlo techniques may fail
// to identify the critical error effects leading to system failure
// because failure probabilities are extremely low. ... a systematic
// approach is required that stresses the system at its possible weak
// spots."
func runE4() (*Result, error) {
	runner, err := caps.NewRunner(caps.Protected(), caps.NormalDriving(), sim.MS(60))
	if err != nil {
		return nil, err
	}
	universe := runner.Universe(sim.MS(5))

	// Monte Carlo samples the *full* fault space, which includes the
	// occurrence-time dimension: faults are transient windows placed
	// uniformly over the mission. The critical effect needs both
	// sensor faults active simultaneously for two fusion cycles, so a
	// random placement rarely aligns — exactly the rare-event
	// blindness the paper describes. The guided strategy is the
	// systematic counterpart: it fixes worst-case (permanent-from-
	// start) activation and concentrates on weak-spot pairs.
	mcUniverse := make([]fault.Descriptor, len(universe))
	for i, d := range universe {
		d.Class = fault.Transient
		d.Duration = sim.MS(5)
		mcUniverse[i] = d
	}

	t := &report.Table{
		Title:   "E4: runs to first safety-critical failure (protected CAPS, dual-point fault space)",
		Note:    fmt.Sprintf("budget %d runs per strategy; universe %d single faults", e4Budget, len(universe)),
		Columns: []string{"strategy", "seed", "runs-to-first-critical", "criticals-found", "runs-used"},
	}

	// Monte Carlo, several seeds.
	mcDone := Phase("E4", "monte-carlo")
	mcFirst := make([]int, 0, e4Seeds)
	for seed := int64(1); seed <= e4Seeds; seed++ {
		mc := scenario.NewMonteCarlo(mcUniverse, e4Budget, rand.New(rand.NewSource(seed)))
		mc.MultiFault = 2
		mc.Window = sim.MS(40)
		res, err := campaign(fmt.Sprintf("monte-carlo seed %d", seed), runner, mc).Execute(nil)
		if err != nil {
			return nil, err
		}
		first := firstCritical(res.Outcomes)
		t.AddRow("monte-carlo", seed, never(first), res.Tally[fault.SafetyCritical], len(res.Outcomes))
		if first == 0 {
			first = e4Budget + 1 // censored
		}
		mcFirst = append(mcFirst, first)
	}
	mcDone()

	// Guided.
	guidedDone := Phase("E4", "weak-spot-guided")
	res, err := campaign("weak-spot-guided", runner, scenario.NewGuided(universe, e4Budget)).Execute(nil)
	guidedDone()
	if err != nil {
		return nil, err
	}
	gFirst := firstCritical(res.Outcomes)
	gFirstStr := never(gFirst)
	t.AddRow("weak-spot-guided", "-", gFirstStr, res.Tally[fault.SafetyCritical], len(res.Outcomes))

	// Shape: guided finds a critical failure; its first-failure index
	// beats the Monte-Carlo median.
	median := medianInt(mcFirst)
	holds := gFirst > 0 && gFirst < median

	return &Result{
		ID:         "E4",
		Title:      "Monte Carlo vs weak-spot-guided injection",
		Claim:      "standard Monte-Carlo may fail to identify critical error effects; a systematic approach must stress the system at its weak spots (Sec. 3.4)",
		Tables:     []*report.Table{t},
		ShapeHolds: holds,
		ShapeDetail: fmt.Sprintf(
			"guided finds the critical dual-point failure after %s runs vs Monte-Carlo median %d (budget %d, censored counted as budget+1)",
			gFirstStr, median, e4Budget),
	}, nil
}

// firstCritical is the 1-based index of the first safety-goal
// violation (SDC and timing failures are easier to hit and are not
// what this search is about), or 0 when none occurred.
func firstCritical(outcomes []fault.Outcome) int {
	return 1 + slices.IndexFunc(outcomes, func(o fault.Outcome) bool { return o.Class == fault.SafetyCritical })
}

// never renders a runs-to-first-critical index, 0 meaning none.
func never(first int) string {
	if first == 0 {
		return "never"
	}
	return fmt.Sprint(first)
}

// medianInt is the upper median of a non-empty xs.
func medianInt(xs []int) int {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}
