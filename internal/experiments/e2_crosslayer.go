package experiments

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/rtl"
)

func init() {
	register(Experiment{ID: "E2", Title: "Cross-layer injection divergence (gate vs TLM)", Run: runE2})
}

// e2Vectors is the stimulus count per fault.
const e2Vectors = 64

// runE2 injects matched stuck-at faults into the same ALU at two
// abstraction levels and compares outcome classifications.
//
// Gate level: the fault goes on the actual internal net. Behavioural
// (TLM) level: the model has no internal nets, so the injection is
// approximated at architectural granularity — the fault is mapped to
// the primary output bit that the faulty net feeds (the standard
// cone-of-influence approximation high-level fault models use).
//
// Paper anchor (Sec. 3.4, citing [40]): "error injection at high
// level of abstraction may result in different results than injecting
// errors at the gate level".
func runE2() (*Result, error) {
	alu := rtl.NewALU(8)
	ev, err := rtl.NewEvaluator(alu.Circuit)
	if err != nil {
		return nil, err
	}
	cone := outputCones(alu)

	// Stimuli: a deterministic mix of vectors.
	type vec struct{ a, b, op uint64 }
	var vecs []vec
	for i := 0; i < e2Vectors; i++ {
		vecs = append(vecs, vec{
			a:  uint64(i*37+11) & 0xff,
			b:  uint64(i*91+3) & 0xff,
			op: uint64(i) % 8,
		})
	}
	goldenDone := Phase("E2", "golden")
	golden := make([]uint64, len(vecs))
	for i, v := range vecs {
		ev.SetBus(alu.A, v.a)
		ev.SetBus(alu.B, v.b)
		ev.SetBus(alu.Op, v.op)
		ev.Eval()
		y, _ := ev.BusValue(alu.Y)
		golden[i] = y
	}
	goldenDone()

	// Fault list: stuck-at-0 and stuck-at-1 on every 7th internal net
	// (sampling keeps the experiment fast while covering the cone mix).
	type faultRec struct {
		net  rtl.Net
		sa1  bool
		gate string // classification at gate level
		high string // classification at behavioural level
	}
	var faults []faultRec
	for n := 0; n < alu.Circuit.NumNets(); n += 7 {
		faults = append(faults, faultRec{net: rtl.Net(n), sa1: false})
		faults = append(faults, faultRec{net: rtl.Net(n), sa1: true})
	}

	classify := func(observedDiff bool) string {
		if observedDiff {
			return "observed"
		}
		return "masked"
	}

	classifyDone := Phase("E2", "inject-classify")
	for fi := range faults {
		f := &faults[fi]
		kind := rtl.FaultStuckAt0
		if f.sa1 {
			kind = rtl.FaultStuckAt1
		}
		// Gate level: exact net injection.
		gateDiff := false
		ev.ClearFaults()
		ev.InjectFault(f.net, kind)
		for i, v := range vecs {
			ev.SetBus(alu.A, v.a)
			ev.SetBus(alu.B, v.b)
			ev.SetBus(alu.Op, v.op)
			ev.Eval()
			y, ok := ev.BusValue(alu.Y)
			if !ok || y != golden[i] {
				gateDiff = true
				break
			}
		}
		ev.ClearFaults()
		f.gate = classify(gateDiff)

		// Behavioural level: stuck bit on the output the net feeds.
		bits := cone[f.net]
		highDiff := false
		for i, v := range vecs {
			y, _, _ := rtl.ALUGolden(rtl.ALUOp(v.op), v.a, v.b, 8)
			for _, bit := range bits {
				if f.sa1 {
					y |= 1 << uint(bit)
				} else {
					y &^= 1 << uint(bit)
				}
			}
			if y != golden[i] {
				highDiff = true
				break
			}
		}
		f.high = classify(highDiff)
	}
	classifyDone()

	agree, gateMaskedOnly, highMaskedOnly := 0, 0, 0
	for _, f := range faults {
		switch {
		case f.gate == f.high:
			agree++
		case f.gate == "masked":
			gateMaskedOnly++
		default:
			highMaskedOnly++
		}
	}
	total := len(faults)
	divergence := float64(total-agree) / float64(total)

	t := &report.Table{
		Title:   "E2: matched stuck-at faults, gate level vs behavioural level",
		Note:    fmt.Sprintf("%d faults x %d vectors; 'observed' = output differs from golden", total, len(vecs)),
		Columns: []string{"metric", "value"},
	}
	t.AddRow("faults injected", total)
	t.AddRow("classifications agree", agree)
	t.AddRow("gate masked, high-level observed", gateMaskedOnly)
	t.AddRow("gate observed, high-level masked", highMaskedOnly)
	t.AddRow("divergence", fmt.Sprintf("%.1f%%", divergence*100))

	return &Result{
		ID:         "E2",
		Title:      "Cross-layer injection divergence",
		Claim:      "error injection at high level of abstraction may result in different results than injecting at gate level (Sec. 3.4, [40])",
		Tables:     []*report.Table{t},
		ShapeHolds: divergence > 0 && gateMaskedOnly > 0,
		ShapeDetail: fmt.Sprintf(
			"divergence %.1f%% > 0; %d faults masked by downstream gate logic that the high-level approximation reports as failures (the over-estimation [40] describes)",
			divergence*100, gateMaskedOnly),
	}, nil
}

// outputCones maps every net to the primary output bit indices its
// value can reach (forward reachability over the netlist).
func outputCones(alu *rtl.ALU) map[rtl.Net][]int {
	c := alu.Circuit
	// consumers: net -> gates reading it.
	consumers := map[rtl.Net][]int{}
	for gi, g := range c.Gates() {
		for _, in := range g.In {
			consumers[in] = append(consumers[in], gi)
		}
	}
	outBit := map[rtl.Net]int{}
	for i, n := range alu.Y {
		outBit[n] = i
	}
	cone := make(map[rtl.Net][]int, c.NumNets())
	for n := 0; n < c.NumNets(); n++ {
		start := rtl.Net(n)
		seen := map[rtl.Net]bool{start: true}
		stack := []rtl.Net{start}
		bits := map[int]bool{}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if b, ok := outBit[cur]; ok {
				bits[b] = true
			}
			for _, gi := range consumers[cur] {
				out := c.Gates()[gi].Out
				if !seen[out] {
					seen[out] = true
					stack = append(stack, out)
				}
			}
		}
		var list []int
		for b := range bits {
			list = append(list, b)
		}
		if len(list) > 1 {
			// Architectural fault models are single-location: keep the
			// lowest-numbered bit (deterministic choice).
			min := list[0]
			for _, b := range list {
				if b < min {
					min = b
				}
			}
			list = []int{min}
		}
		cone[start] = list
	}
	return cone
}
