package experiments

import (
	"fmt"

	"repro/internal/caps"
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/sim"
)

func init() {
	register(Experiment{ID: "F3", Title: "Fig. 3: error-effect simulation closed loop (executable)", Run: runF3})
}

// runF3 executes the paper's Fig. 3 loop: the stressor injects error
// scenarios into the virtual prototype, the monitor classifies the
// outcome, the fault-space coverage model absorbs the result, and the
// remaining coverage holes drive the next scenarios — iterating until
// coverage closure. The loop's own progress is the experiment output.
func runF3() (*Result, error) {
	horizon := sim.MS(60)
	runner, err := caps.NewRunner(caps.Protected(), caps.NormalDriving(), horizon)
	if err != nil {
		return nil, err
	}
	universe := runner.Universe(sim.MS(10))

	// Declare the fault space from the universe.
	loop := &closure{
		fs:       coverage.NewFaultSpace(nil, nil),
		byCell:   map[coverage.SiteModelKey]fault.Descriptor{},
		proposed: map[coverage.SiteModelKey]bool{},
		t: &report.Table{
			Title:   "F3: coverage-closure loop over the CAPS fault space",
			Columns: []string{"iteration", "scenarios run", "coverage", "open holes", "worst site severity"},
		},
	}
	for _, d := range universe {
		loop.fs.Declare(d.Target, d.Model.String())
		loop.byCell[coverage.SiteModelKey{Site: d.Target, Model: d.Model.String()}] = d
	}

	loopDone := Phase("F3", "closure-loop")
	_, err = campaign("coverage-closure", runner, loop).Execute(nil)
	loopDone()
	if err != nil {
		return nil, err
	}

	fs, iterations, totalRuns := loop.fs, len(loop.t.Rows), loop.runs
	ws := fs.WorstBySite()
	wt := &report.Table{
		Title:   "F3a: weak-spot ranking produced by the loop",
		Columns: []string{"site", "worst severity"},
	}
	for _, w := range ws {
		wt.AddRow(w.Site, w.Severity)
	}

	holds := fs.Coverage() == 1 && totalRuns == len(universe) && iterations > 1
	return &Result{
		ID:         "F3",
		Title:      "Fig. 3 as an executable closed loop",
		Claim:      "intelligent coverage models measure the completeness of the error effect simulation and steer injection toward coverage closure (Sec. 3.4, Fig. 3)",
		Tables:     []*report.Table{loop.t, wt},
		ShapeHolds: holds,
		ShapeDetail: fmt.Sprintf(
			"loop reached 100%% fault-space coverage in %d iterations and %d runs (one per declared cell), emitting the weak-spot ranking",
			iterations, totalRuns),
	}, nil
}

// perIteration is how many closure runs one row of F3's table spans.
const perIteration = 5

// closure is F3's loop as a campaign Source: Next proposes the first
// coverage hole not yet proposed, Observe records the outcome's
// severity in the fault space and adds a table row every perIteration
// runs and at closure.
type closure struct {
	fs       *coverage.FaultSpace
	byCell   map[coverage.SiteModelKey]fault.Descriptor
	proposed map[coverage.SiteModelKey]bool
	runs     int
	t        *report.Table
}

func (c *closure) Next() (fault.Scenario, bool) {
	for _, hole := range c.fs.Holes() {
		if !c.proposed[hole] {
			c.proposed[hole] = true
			return fault.Single(c.byCell[hole]), true
		}
	}
	return fault.Scenario{}, false
}

func (c *closure) Observe(o fault.Outcome) {
	d := o.Scenario.Faults[0]
	c.fs.Record(d.Target, d.Model.String(), o.Class.Severity())
	c.runs++
	if c.runs%perIteration != 0 && c.fs.Coverage() < 1 {
		return
	}
	worst := 0
	if ws := c.fs.WorstBySite(); len(ws) > 0 {
		worst = ws[0].Severity
	}
	c.t.AddRow(len(c.t.Rows)+1, c.runs, fmt.Sprintf("%.0f%%", c.fs.Coverage()*100), len(c.fs.Holes()), worst)
}
