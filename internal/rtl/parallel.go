package rtl

// ParallelEvaluator is a two-valued, bit-parallel evaluator: each net
// holds a 64-bit word carrying 64 independent stimulus patterns, so
// one pass over the netlist simulates 64 vectors (the classic PPSFP —
// parallel-pattern single-fault propagation — acceleration).
//
// The paper's Sec. 2.2 notes that "simulation at the gate and RTL is
// usually too slow, so that acceleration techniques are required" and
// lists FPGA emulation and abstraction raising; bit-parallel fault
// simulation is the software-only member of that family and serves as
// this repository's substitute for emulation hardware (see DESIGN.md).
// Restriction: combinational circuits and known (0/1) values only —
// exactly the setting of stuck-at fault grading.
type ParallelEvaluator struct {
	c     *Circuit
	val   []uint64
	order []int

	faultNet Net
	faultSA1 bool
	active   bool

	evals uint64
}

// NewParallelEvaluator compiles the circuit.
func NewParallelEvaluator(c *Circuit) (*ParallelEvaluator, error) {
	base, err := NewEvaluator(c)
	if err != nil {
		return nil, err
	}
	return &ParallelEvaluator{c: c, val: make([]uint64, c.numNets), order: base.order}, nil
}

// SetInputPatterns drives a primary input with 64 patterns (bit i of
// w is the value in pattern i).
func (e *ParallelEvaluator) SetInputPatterns(n Net, w uint64) {
	e.val[n] = w
}

// SetFault installs a single stuck-at fault for subsequent Eval calls.
func (e *ParallelEvaluator) SetFault(n Net, sa1 bool) {
	e.faultNet = n
	e.faultSA1 = sa1
	e.active = true
}

// ClearFault removes the fault overlay.
func (e *ParallelEvaluator) ClearFault() { e.active = false }

// overlay applies the stuck-at fault to a computed word.
func (e *ParallelEvaluator) overlay(n Net, w uint64) uint64 {
	if !e.active || n != e.faultNet {
		return w
	}
	if e.faultSA1 {
		return ^uint64(0)
	}
	return 0
}

// Eval settles the combinational cloud for all 64 patterns at once.
func (e *ParallelEvaluator) Eval() {
	// Apply the overlay to inputs too.
	if e.active {
		e.val[e.faultNet] = e.overlay(e.faultNet, e.val[e.faultNet])
	}
	for _, gi := range e.order {
		g := &e.c.gates[gi]
		var w uint64
		switch g.Kind {
		case GateBuf:
			w = e.val[g.In[0]]
		case GateNot:
			w = ^e.val[g.In[0]]
		case GateAnd, GateNand:
			w = ^uint64(0)
			for _, in := range g.In {
				w &= e.val[in]
			}
			if g.Kind == GateNand {
				w = ^w
			}
		case GateOr, GateNor:
			w = 0
			for _, in := range g.In {
				w |= e.val[in]
			}
			if g.Kind == GateNor {
				w = ^w
			}
		case GateXor, GateXnor:
			w = 0
			for _, in := range g.In {
				w ^= e.val[in]
			}
			if g.Kind == GateXnor {
				w = ^w
			}
		case GateMux:
			sel := e.val[g.In[0]]
			w = e.val[g.In[1]]&^sel | e.val[g.In[2]]&sel
		case GateConst:
			if g.Const == L1 {
				w = ^uint64(0)
			}
		}
		e.val[g.Out] = e.overlay(g.Out, w)
		e.evals++
	}
}

// FaultGradeResult summarizes a stuck-at fault-grading run.
type FaultGradeResult struct {
	// Faults is the number of faults simulated (2 per candidate net).
	Faults int
	// Detected is how many faults at least one pattern detected (a
	// primary-output difference from the golden response).
	Detected int
	// GateEvals is the total gate-evaluation count (cost metric).
	GateEvals uint64
}

// Coverage is the stuck-at fault coverage of the pattern set.
func (r FaultGradeResult) Coverage() float64 {
	if r.Faults == 0 {
		return 1
	}
	return float64(r.Detected) / float64(r.Faults)
}

// FaultGrade grades a pattern set against all stuck-at-0/1 faults on
// the given nets: for each fault, the circuit is re-simulated with the
// overlay and compared to the golden primary outputs across all 64
// patterns in parallel.
func (e *ParallelEvaluator) FaultGrade(nets []Net, patterns map[Net]uint64) FaultGradeResult {
	for n, w := range patterns {
		e.SetInputPatterns(n, w)
	}
	e.ClearFault()
	e.Eval()
	golden := make([]uint64, len(e.c.outputs))
	for i, o := range e.c.outputs {
		golden[i] = e.val[o]
	}
	res := FaultGradeResult{}
	for _, n := range nets {
		for _, sa1 := range []bool{false, true} {
			for pn, w := range patterns {
				e.SetInputPatterns(pn, w)
			}
			e.SetFault(n, sa1)
			e.Eval()
			res.Faults++
			for i, o := range e.c.outputs {
				if e.val[o] != golden[i] {
					res.Detected++
					break
				}
			}
		}
	}
	e.ClearFault()
	res.GateEvals = e.evals
	return res
}

// SerialFaultGrade is the reference implementation on the four-state
// evaluator, one pattern at a time — the baseline the acceleration is
// measured against.
func SerialFaultGrade(c *Circuit, nets []Net, patterns []map[Net]Logic) (FaultGradeResult, error) {
	ev, err := NewEvaluator(c)
	if err != nil {
		return FaultGradeResult{}, err
	}
	// Golden responses per pattern.
	golden := make([][]Logic, len(patterns))
	for pi, pat := range patterns {
		for n, v := range pat {
			ev.SetInputNet(n, v)
		}
		ev.Eval()
		row := make([]Logic, len(c.outputs))
		for i, o := range c.outputs {
			row[i] = ev.Value(o)
		}
		golden[pi] = row
	}
	res := FaultGradeResult{}
	for _, n := range nets {
		for _, kind := range []FaultKind{FaultStuckAt0, FaultStuckAt1} {
			res.Faults++
			detected := false
			for pi, pat := range patterns {
				ev.ClearFaults()
				ev.InjectFault(n, kind)
				for in, v := range pat {
					ev.SetInputNet(in, v)
				}
				ev.Eval()
				for i, o := range c.outputs {
					if ev.Value(o) != golden[pi][i] {
						detected = true
						break
					}
				}
				if detected {
					break
				}
			}
			if detected {
				res.Detected++
			}
		}
	}
	ev.ClearFaults()
	res.GateEvals = ev.GateEvals()
	return res, nil
}
