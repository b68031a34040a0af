package experiments

import (
	"fmt"
	"time"

	"repro/internal/report"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/tlm"
)

func init() {
	register(Experiment{ID: "E1", Title: "Communication abstraction ladder speed-up", Run: runE1})
}

// e1Items is the workload size (transactions per level).
const e1Items = 2000

// e1Level runs the workload at one abstraction level and reports
// wall-clock and kernel statistics.
type e1Level struct {
	name     string
	wall     time.Duration
	deltas   uint64
	timeSpts uint64
}

// runE1 pushes the same read-modify-write workload through five
// modelling styles of the same CPU↔memory interaction: gate-level
// event simulation, cycle-accurate, approximately-timed (four-phase),
// loosely-timed, and loosely-timed with temporal decoupling.
//
// Paper anchor (Sec. 2.3): "the different communication abstraction
// levels allow significant speed-up for system-level models
// simulation, a crucial advantage on early safety assurance of large
// VPs."
func runE1() (*Result, error) {
	n := e1Items
	levels := []struct {
		name string
		run  func(n int) (sim.Stats, error)
	}{
		{"gate-level", e1Gate},
		{"cycle-accurate", e1CycleAccurate},
		{"approximately-timed", e1AT},
		{"loosely-timed", e1LT},
		{"LT+temporal-decoupling", e1LTTD},
	}
	var rows []e1Level
	for _, l := range levels {
		done := Phase("E1", l.name)
		start := time.Now()
		st, err := l.run(n)
		done()
		if err != nil {
			return nil, fmt.Errorf("E1 %s: %w", l.name, err)
		}
		rows = append(rows, e1Level{name: l.name, wall: time.Since(start), deltas: st.DeltaCycles, timeSpts: st.TimeSteps})
	}

	t := &report.Table{
		Title:   "E1: same workload across abstraction levels",
		Note:    fmt.Sprintf("%d transactions per level; speedup relative to gate level", n),
		Columns: []string{"level", "wall", "ns/txn", "delta-cycles", "time-steps", "speedup"},
	}
	base := rows[0].wall
	monotone := true
	for i, r := range rows {
		speedup := float64(base) / float64(r.wall)
		t.AddRow(r.name, r.wall.Round(time.Microsecond), float64(r.wall.Nanoseconds())/float64(n), r.deltas, r.timeSpts, fmt.Sprintf("%.1fx", speedup))
		if i > 0 && r.deltas > rows[i-1].deltas {
			monotone = false
		}
	}
	ltSpeedup := float64(base) / float64(rows[3].wall)
	tdFaster := rows[4].wall <= rows[3].wall

	return &Result{
		ID:         "E1",
		Title:      "Communication abstraction ladder speed-up",
		Claim:      "different communication abstraction levels allow significant speed-up (Sec. 2.3)",
		Tables:     []*report.Table{t},
		ShapeHolds: monotone && ltSpeedup > 2 && tdFaster,
		ShapeDetail: fmt.Sprintf(
			"scheduling work monotone decreasing up the ladder: %v; LT %.1fx faster than gate level; decoupling faster than plain LT: %v",
			monotone, ltSpeedup, tdFaster),
	}, nil
}

// e1Gate computes each item on a gate-level ALU simulated as kernel
// processes (one method process per gate).
func e1Gate(n int) (sim.Stats, error) {
	alu := rtl.NewALU(8)
	k := sim.NewKernel()
	kc := rtl.BindKernel(k, alu.Circuit)
	var err error
	k.Thread("tb", func(ctx *sim.ThreadCtx) {
		for i := 0; i < n; i++ {
			kc.DriveBus(alu.A, uint64(i)&0xff)
			kc.DriveBus(alu.B, uint64(i>>3)&0xff)
			kc.DriveBus(alu.Op, uint64(i)%8)
			ctx.WaitTime(sim.NS(10))
			if _, ok := kc.ReadBus(alu.Y); !ok {
				err = fmt.Errorf("unknown output at item %d", i)
				return
			}
		}
	})
	if e := k.Run(sim.TimeMax); e != nil {
		return sim.Stats{}, e
	}
	k.Shutdown()
	return k.Stats(), err
}

// e1CycleAccurate models each transaction as its individual bus
// cycles: four kernel time steps per access.
func e1CycleAccurate(n int) (sim.Stats, error) {
	k := sim.NewKernel()
	mem := tlm.NewMemory("ram", 0, 4096)
	sock := tlm.NewInitiatorSocket("cpu")
	sock.Bind(mem)
	k.Thread("cpu", func(ctx *sim.ThreadCtx) {
		for i := 0; i < n; i++ {
			// Address, data, access, response phases: one clock each.
			for c := 0; c < 4; c++ {
				ctx.WaitTime(sim.NS(10))
			}
			var d sim.Time
			sock.Write32(uint64(i*4%4096), uint32(i), &d)
		}
	})
	if err := k.Run(sim.TimeMax); err != nil {
		return sim.Stats{}, err
	}
	k.Shutdown()
	return k.Stats(), nil
}

// e1AT uses the four-phase non-blocking protocol (a few kernel events
// per transaction).
func e1AT(n int) (sim.Stats, error) {
	k := sim.NewKernel()
	mem := tlm.NewMemory("ram", 0, 4096)
	mem.WriteLatency = sim.NS(30)
	req := tlm.NewATRequester(k, "cpu")
	at := tlm.NewATTarget(k, "ram.at", mem, req)
	req.Bind(at)
	k.Thread("cpu", func(ctx *sim.ThreadCtx) {
		for i := 0; i < n; i++ {
			p := tlm.NewWrite(uint64(i*4%4096), []byte{byte(i), 0, 0, 0})
			req.Transact(ctx, p)
		}
	})
	if err := k.Run(sim.TimeMax); err != nil {
		return sim.Stats{}, err
	}
	k.Shutdown()
	return k.Stats(), nil
}

// e1LT uses blocking transport with one kernel wait per transaction.
func e1LT(n int) (sim.Stats, error) {
	k := sim.NewKernel()
	mem := tlm.NewMemory("ram", 0, 4096)
	mem.WriteLatency = sim.NS(40)
	sock := tlm.NewInitiatorSocket("cpu")
	sock.Bind(mem)
	k.Thread("cpu", func(ctx *sim.ThreadCtx) {
		for i := 0; i < n; i++ {
			var d sim.Time
			sock.Write32(uint64(i*4%4096), uint32(i), &d)
			ctx.WaitTime(d)
		}
	})
	if err := k.Run(sim.TimeMax); err != nil {
		return sim.Stats{}, err
	}
	k.Shutdown()
	return k.Stats(), nil
}

// e1LTTD adds a quantum keeper: the thread yields to the kernel only
// once per 100 transactions.
func e1LTTD(n int) (sim.Stats, error) {
	k := sim.NewKernel()
	mem := tlm.NewMemory("ram", 0, 4096)
	mem.WriteLatency = sim.NS(40)
	sock := tlm.NewInitiatorSocket("cpu")
	sock.Bind(mem)
	k.Thread("cpu", func(ctx *sim.ThreadCtx) {
		qk := tlm.NewQuantumKeeper(ctx, sim.NS(40)*100)
		for i := 0; i < n; i++ {
			var d sim.Time
			sock.Write32(uint64(i*4%4096), uint32(i), &d)
			qk.Inc(d)
			qk.SyncIfNeeded()
		}
		qk.Sync()
	})
	if err := k.Run(sim.TimeMax); err != nil {
		return sim.Stats{}, err
	}
	k.Shutdown()
	return k.Stats(), nil
}
