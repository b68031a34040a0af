package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/caps"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func init() {
	register(Experiment{ID: "E4", Title: "Monte Carlo vs weak-spot-guided injection", Run: runE4})
}

// E4Budget is the per-strategy run budget; E4Seeds the Monte-Carlo
// seed count.
var (
	E4Budget = 300
	E4Seeds  = 5
)

// runE4 searches for the safety-critical error effect of the fully
// protected CAPS system. Every single fault is handled by a
// mechanism; only specific dual-point faults (e.g. a common-cause
// short-to-supply on both redundant sensors) defeat the plausibility
// check and fire the airbag. Monte Carlo samples random fault pairs;
// the guided strategy sweeps singles to rank weak spots, then
// concentrates pair scenarios on them.
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
		Note:    fmt.Sprintf("budget %d runs per strategy; universe %d single faults", E4Budget, len(universe)),
		Columns: []string{"strategy", "seed", "runs-to-first-critical", "criticals-found", "runs-used"},
	}

	// Monte Carlo, several seeds.
	mcDone := Phase("E4", "monte-carlo")
	mcFirst := make([]int, 0, E4Seeds)
	for seed := int64(1); seed <= int64(E4Seeds); seed++ {
		mc := scenario.NewMonteCarlo(mcUniverse, E4Budget, rand.New(rand.NewSource(seed)))
		mc.MultiFault = 2
		mc.Window = sim.MS(40)
		outcomes := scenario.Drive(mc, runner.RunScenario)
		first := firstCritical(outcomes)
		fails := countCritical(outcomes)
		firstStr := "never"
		if first > 0 {
			firstStr = fmt.Sprint(first)
		}
		t.AddRow("monte-carlo", seed, firstStr, fails, len(outcomes))
		if first == 0 {
			first = E4Budget + 1 // censored
		}
		mcFirst = append(mcFirst, first)
	}
	mcDone()

	// Guided.
	guidedDone := Phase("E4", "weak-spot-guided")
	g := scenario.NewGuided(universe, E4Budget)
	outcomes := scenario.Drive(g, runner.RunScenario)
	guidedDone()
	gFirst := firstCritical(outcomes)
	gFails := countCritical(outcomes)
	gFirstStr := "never"
	if gFirst > 0 {
		gFirstStr = fmt.Sprint(gFirst)
	}
	t.AddRow("weak-spot-guided", "-", gFirstStr, gFails, len(outcomes))

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
			gFirstStr, median, E4Budget),
	}, nil
}

// firstCritical is the 1-based index of the first safety-goal
// violation (SDC and timing failures are easier to hit and are not
// what this search is about), or 0 when none occurred.
func firstCritical(outcomes []fault.Outcome) int {
	for i, o := range outcomes {
		if o.Class == fault.SafetyCritical {
			return i + 1
		}
	}
	return 0
}

func countCritical(outcomes []fault.Outcome) int {
	n := 0
	for _, o := range outcomes {
		if o.Class == fault.SafetyCritical {
			n++
		}
	}
	return n
}

func medianInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
