package experiments

import (
	"fmt"
	"time"

	"repro/internal/ecu"
	"repro/internal/report"
	"repro/internal/sim"
)

func init() {
	register(Experiment{ID: "E6", Title: "Temporal decoupling quantum sweep", Run: runE6})
}

// runE6 sweeps the temporal-decoupling quantum of an ECU task set
// with an injected delay fault ("the right value at the wrong time").
// The true deadline misses are quantum-independent; what an external
// kernel-time monitor *observes* degrades as the quantum grows, while
// the kernel does less scheduling work.
//
// Paper anchor (Sec. 3.4): temporal decoupling is needed for speed,
// but "with the guarantee that the error effect is simulated
// correctly in terms of functionality and time" — a guarantee naive
// decoupling does not give.
func runE6() (*Result, error) {
	horizon := sim.MS(200)
	quanta := []sim.Time{0, sim.US(100), sim.US(500), sim.MS(1), sim.MS(5), sim.MS(20)}

	t := &report.Table{
		Title:   "E6: quantum sweep on a 3-task ECU workload with an injected delay fault",
		Note:    "true misses from decoupled-local time; observed misses are what a kernel-time monitor sees",
		Columns: []string{"quantum", "kernel time-steps", "wall", "true deadline misses", "observed misses", "detection"},
	}

	type row struct {
		timeSteps uint64
		trueM     int
		obsM      int
	}
	var rows []row
	for _, q := range quanta {
		done := Phase("E6", fmt.Sprintf("quantum=%v", q))
		k := sim.NewKernel()
		s := ecu.NewScheduler(k, horizon)
		s.Quantum = q
		// Three periodic tasks; the control task carries a delay fault
		// that pushes it past its deadline.
		if err := s.Add(&ecu.Task{Name: "control", Period: sim.MS(2), Deadline: sim.US(900), WCET: sim.US(400), ExtraDelay: sim.US(600)}); err != nil {
			return nil, err
		}
		if err := s.Add(&ecu.Task{Name: "diagnosis", Period: sim.MS(5), WCET: sim.US(800)}); err != nil {
			return nil, err
		}
		if err := s.Add(&ecu.Task{Name: "comms", Period: sim.MS(1), WCET: sim.US(100)}); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := s.Run(); err != nil {
			return nil, err
		}
		wall := time.Since(start)
		k.Shutdown()
		st := k.Stats()
		det := "100%"
		if s.Misses() > 0 {
			det = fmt.Sprintf("%.0f%%", 100*float64(s.ObservedMisses())/float64(s.Misses()))
		}
		t.AddRow(q, st.TimeSteps, wall.Round(time.Microsecond), s.Misses(), s.ObservedMisses(), det)
		rows = append(rows, row{timeSteps: st.TimeSteps, trueM: s.Misses(), obsM: s.ObservedMisses()})
		done()
	}

	// Shape checks: (1) true misses constant, (2) kernel work shrinks
	// with quantum, (3) observation degrades at large quanta while
	// exact at quantum 0.
	trueConstant := true
	for _, r := range rows {
		if r.trueM != rows[0].trueM {
			trueConstant = false
		}
	}
	workShrinks := rows[len(rows)-1].timeSteps < rows[0].timeSteps
	exactAtZero := rows[0].obsM == rows[0].trueM && rows[0].trueM > 0
	degrades := rows[len(rows)-1].obsM < rows[len(rows)-1].trueM

	return &Result{
		ID:         "E6",
		Title:      "Temporal decoupling quantum sweep",
		Claim:      "temporal decoupling buys simulation speed but must keep the error effect correct in time — naive decoupling loses timing-error observability (Sec. 3.4)",
		Tables:     []*report.Table{t},
		ShapeHolds: trueConstant && workShrinks && exactAtZero && degrades,
		ShapeDetail: fmt.Sprintf(
			"true misses constant (%d); kernel time-steps %d -> %d across sweep; observation exact at quantum 0 and degraded to %d/%d at the largest quantum",
			rows[0].trueM, rows[0].timeSteps, rows[len(rows)-1].timeSteps, rows[len(rows)-1].obsM, rows[len(rows)-1].trueM),
	}, nil
}
