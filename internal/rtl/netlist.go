package rtl

import (
	"fmt"
	"strconv"
)

// Net identifies one wire in a circuit.
type Net int32

// GateKind enumerates the primitive cell library.
type GateKind uint8

const (
	// GateBuf copies its input.
	GateBuf GateKind = iota
	// GateNot inverts its input.
	GateNot
	// GateAnd is an n-input conjunction.
	GateAnd
	// GateOr is an n-input disjunction.
	GateOr
	// GateNand is an inverted conjunction.
	GateNand
	// GateNor is an inverted disjunction.
	GateNor
	// GateXor is an n-input parity.
	GateXor
	// GateXnor is inverted parity.
	GateXnor
	// GateMux selects In[1] (sel=0) or In[2] (sel=1) by In[0].
	GateMux
	// GateConst drives a constant (stored in Const).
	GateConst
)

var gateKindNames = map[GateKind]string{
	GateBuf: "buf", GateNot: "not", GateAnd: "and", GateOr: "or",
	GateNand: "nand", GateNor: "nor", GateXor: "xor", GateXnor: "xnor",
	GateMux: "mux", GateConst: "const",
}

// String names the gate kind.
func (k GateKind) String() string {
	if s, ok := gateKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("GateKind(%d)", uint8(k))
}

// Gate is one primitive cell instance.
type Gate struct {
	Kind  GateKind
	In    []Net
	Out   Net
	Const Logic // for GateConst
}

// Circuit is a structural netlist under construction. Build it with
// the Input/And/Or/... methods, mark observable nets with Output,
// then compile it into an Evaluator.
type Circuit struct {
	name    string
	numNets int
	gates   []Gate

	outputs []Net

	netName map[Net]string
}

// NewCircuit creates an empty netlist.
func NewCircuit(name string) *Circuit {
	return &Circuit{name: name, netName: make(map[Net]string)}
}

// NumNets reports the number of wires.
func (c *Circuit) NumNets() int { return c.numNets }

// NumGates reports the number of cells.
func (c *Circuit) NumGates() int { return len(c.gates) }

// Gates exposes the cell list (read-only use).
func (c *Circuit) Gates() []Gate { return c.gates }

// newNet allocates a wire.
func (c *Circuit) newNet() Net {
	n := Net(c.numNets)
	c.numNets++
	return n
}

// nameNet attaches a diagnostic name to a net.
func (c *Circuit) nameNet(n Net, name string) {
	if name == "" {
		return
	}
	c.netName[n] = name
}

// NetName reports the name of a net ("n<id>" when unnamed).
func (c *Circuit) NetName(n Net) string {
	if s, ok := c.netName[n]; ok {
		return s
	}
	return "n" + strconv.Itoa(int(n))
}

// Input declares a primary input wire.
func (c *Circuit) Input(name string) Net {
	n := c.newNet()
	c.nameNet(n, name)
	return n
}

// InputBus declares width input wires named name0..name<width-1>,
// least-significant first.
func (c *Circuit) InputBus(name string, width int) []Net {
	bus := make([]Net, width)
	for i := range bus {
		bus[i] = c.Input(fmt.Sprintf("%s%d", name, i))
	}
	return bus
}

// Output marks a net as a primary (observed) output.
func (c *Circuit) Output(name string, n Net) {
	c.nameNet(n, name)
	c.outputs = append(c.outputs, n)
}

// OutputBus marks width nets as outputs named name0.., LSB first.
func (c *Circuit) OutputBus(name string, bus []Net) {
	for i, n := range bus {
		c.Output(fmt.Sprintf("%s%d", name, i), n)
	}
}

// addGate appends a cell and returns its output net.
func (c *Circuit) addGate(kind GateKind, in ...Net) Net {
	out := c.newNet()
	c.gates = append(c.gates, Gate{Kind: kind, In: in, Out: out})
	return out
}

// Buf inserts a buffer (useful as a named observation/injection point).
func (c *Circuit) Buf(a Net) Net { return c.addGate(GateBuf, a) }

// Not inserts an inverter.
func (c *Circuit) Not(a Net) Net { return c.addGate(GateNot, a) }

// And inserts an n-input AND.
func (c *Circuit) And(in ...Net) Net { return c.addGate(GateAnd, in...) }

// Or inserts an n-input OR.
func (c *Circuit) Or(in ...Net) Net { return c.addGate(GateOr, in...) }

// Nor inserts an n-input NOR.
func (c *Circuit) Nor(in ...Net) Net { return c.addGate(GateNor, in...) }

// Xor inserts an n-input XOR (parity).
func (c *Circuit) Xor(in ...Net) Net { return c.addGate(GateXor, in...) }

// Mux2 inserts a 2:1 multiplexer: out = sel ? b : a.
func (c *Circuit) Mux2(sel, a, b Net) Net { return c.addGate(GateMux, sel, a, b) }

// Const drives a constant logic value.
func (c *Circuit) Const(v Logic) Net {
	out := c.newNet()
	c.gates = append(c.gates, Gate{Kind: GateConst, Out: out, Const: v})
	return out
}

// evalGate computes a combinational cell's output from input values.
func evalGate(g *Gate, val []Logic) Logic {
	switch g.Kind {
	case GateBuf:
		return val[g.In[0]]
	case GateNot:
		return val[g.In[0]].Not()
	case GateAnd, GateNand:
		acc := L1
		for _, in := range g.In {
			acc = acc.And(val[in])
		}
		if g.Kind == GateNand {
			return acc.Not()
		}
		return acc
	case GateOr, GateNor:
		acc := L0
		for _, in := range g.In {
			acc = acc.Or(val[in])
		}
		if g.Kind == GateNor {
			return acc.Not()
		}
		return acc
	case GateXor, GateXnor:
		acc := L0
		for _, in := range g.In {
			acc = acc.Xor(val[in])
		}
		if g.Kind == GateXnor {
			return acc.Not()
		}
		return acc
	case GateMux:
		return Mux(val[g.In[0]], val[g.In[1]], val[g.In[2]])
	case GateConst:
		return g.Const
	default:
		panic(fmt.Sprintf("rtl: evalGate on %s", g.Kind))
	}
}
