package rtl

import (
	"fmt"
)

// FaultKind enumerates net-level fault overlays.
type FaultKind uint8

const (
	// FaultStuckAt0 forces a net to 0 (e.g. short to ground — the
	// paper's wiring-fault example in Sec. 3.2).
	FaultStuckAt0 FaultKind = iota
	// FaultStuckAt1 forces a net to 1 (short to supply).
	FaultStuckAt1
	// FaultOpen models a disconnected wire: the net floats and reads
	// as unknown ("disconnected wires between two subcomponents of an
	// ASIC", Sec. 1).
	FaultOpen
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultStuckAt0:
		return "stuck-at-0"
	case FaultStuckAt1:
		return "stuck-at-1"
	case FaultOpen:
		return "open"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// overlay returns the faulty value of a net.
func (k FaultKind) overlay() Logic {
	switch k {
	case FaultStuckAt0:
		return L0
	case FaultStuckAt1:
		return L1
	default:
		return LX
	}
}

// Evaluator executes a compiled netlist by levelized evaluation of its
// combinational cloud. Net-level faults overlay evaluation results
// without modifying the netlist — the "design should not be changed"
// injection requirement of Sec. 3.3.
type Evaluator struct {
	c     *Circuit
	val   []Logic
	order []int // gate indices in topological order

	faults map[Net]FaultKind
	// evals counts gate evaluations, the cost metric for experiment E1.
	evals uint64
}

// NewEvaluator compiles the circuit; it fails on combinational loops.
func NewEvaluator(c *Circuit) (*Evaluator, error) {
	e := &Evaluator{
		c:      c,
		val:    make([]Logic, c.numNets),
		faults: make(map[Net]FaultKind),
	}
	for i := range e.val {
		e.val[i] = LX
	}

	// Kahn topological sort over the gates.
	consumers := make([][]int, c.numNets) // net -> gates reading it
	indeg := make([]int, len(c.gates))
	for gi := range c.gates {
		for _, in := range c.gates[gi].In {
			consumers[in] = append(consumers[in], gi)
		}
	}
	// A gate depends on the gates driving its inputs.
	driver := make([]int, c.numNets)
	for i := range driver {
		driver[i] = -1
	}
	for gi := range c.gates {
		driver[c.gates[gi].Out] = gi
	}
	var queue []int
	for gi := range c.gates {
		for _, in := range c.gates[gi].In {
			if driver[in] >= 0 {
				indeg[gi]++
			}
		}
		if indeg[gi] == 0 {
			queue = append(queue, gi)
		}
	}
	for len(queue) > 0 {
		gi := queue[0]
		queue = queue[1:]
		e.order = append(e.order, gi)
		for _, next := range consumers[c.gates[gi].Out] {
			indeg[next]--
			if indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
	}
	if len(e.order) != len(c.gates) {
		return nil, fmt.Errorf("rtl: circuit %q has a combinational loop", c.name)
	}
	return e, nil
}

// SetInputNet drives a primary input net directly.
func (e *Evaluator) SetInputNet(n Net, v Logic) {
	e.val[n] = e.faulted(n, v)
}

// SetBus drives an input bus (created with InputBus) from an integer,
// LSB first.
func (e *Evaluator) SetBus(bus []Net, v uint64) {
	for i, n := range bus {
		e.SetInputNet(n, FromBool(v>>uint(i)&1 == 1))
	}
}

// Value reads the current value of any net (post-fault-overlay).
func (e *Evaluator) Value(n Net) Logic { return e.val[n] }

// BusValue reads a bus as an integer; ok is false when any bit is
// unknown.
func (e *Evaluator) BusValue(bus []Net) (v uint64, ok bool) {
	ok = true
	for i, n := range bus {
		b, known := e.val[n].Bool()
		if !known {
			ok = false
		}
		if b {
			v |= 1 << uint(i)
		}
	}
	return v, ok
}

// faulted applies a net's fault overlay, if any.
func (e *Evaluator) faulted(n Net, v Logic) Logic {
	if len(e.faults) == 0 {
		return v
	}
	if f, ok := e.faults[n]; ok {
		return f.overlay()
	}
	return v
}

// Eval settles the combinational cloud given the current inputs.
func (e *Evaluator) Eval() {
	for _, gi := range e.order {
		g := &e.c.gates[gi]
		e.val[g.Out] = e.faulted(g.Out, evalGate(g, e.val))
		e.evals++
	}
}

// InjectFault overlays a fault on a net until ClearFaults. Injection
// takes effect at the next Eval.
func (e *Evaluator) InjectFault(n Net, kind FaultKind) {
	e.faults[n] = kind
}

// ClearFaults removes all fault overlays; values refresh on next Eval.
func (e *Evaluator) ClearFaults() {
	clear(e.faults)
}

// GateEvals reports the cumulative number of gate evaluations.
func (e *Evaluator) GateEvals() uint64 { return e.evals }
