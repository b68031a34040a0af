package rtl

import (
	"repro/internal/sim"
)

// KernelCircuit runs a netlist as event-driven processes on the
// simulation kernel: one method process per combinational gate,
// sensitive to its input nets' value-changed events. This is the
// classic (and deliberately expensive) gate-level event simulation, the
// bottom rung of the abstraction ladder measured by experiment E1. For fault campaigns
// use the levelized Evaluator instead; for cost comparison use this.
type KernelCircuit struct {
	sigs []*sim.Signal[Logic]
}

// BindKernel elaborates the circuit onto the kernel.
func BindKernel(k *sim.Kernel, c *Circuit) *KernelCircuit {
	kc := &KernelCircuit{}
	kc.sigs = make([]*sim.Signal[Logic], c.numNets)
	for n := 0; n < c.numNets; n++ {
		kc.sigs[n] = sim.NewSignal(k, c.NetName(Net(n)), LX)
	}
	scratch := make([]Logic, c.numNets) // shared: method bodies run sequentially
	for gi := range c.gates {
		g := &c.gates[gi]
		switch g.Kind {
		case GateConst:
			out := kc.sigs[g.Out]
			v := g.Const
			k.Method(c.name+".const", func() { out.Write(v) })
		default:
			gate := g
			out := kc.sigs[g.Out]
			sens := make([]*sim.Event, len(g.In))
			for i, in := range g.In {
				sens[i] = kc.sigs[in].Changed()
			}
			k.Method(c.name+"."+g.Kind.String(), func() {
				for _, in := range gate.In {
					scratch[in] = kc.sigs[in].Read()
				}
				out.Write(evalGate(gate, scratch))
			}, sens...)
		}
	}
	return kc
}

// Drive writes a value onto a net's signal (primary inputs).
func (kc *KernelCircuit) Drive(n Net, v Logic) { kc.sigs[n].Write(v) }

// DriveBus writes an integer onto a bus, LSB first.
func (kc *KernelCircuit) DriveBus(bus []Net, v uint64) {
	for i, n := range bus {
		kc.Drive(n, FromBool(v>>uint(i)&1 == 1))
	}
}

// Read samples a net's current signal value.
func (kc *KernelCircuit) Read(n Net) Logic { return kc.sigs[n].Read() }

// ReadBus samples a bus as an integer; ok is false when any bit is
// unknown.
func (kc *KernelCircuit) ReadBus(bus []Net) (v uint64, ok bool) {
	ok = true
	for i, n := range bus {
		b, known := kc.Read(n).Bool()
		if !known {
			ok = false
		}
		if b {
			v |= 1 << uint(i)
		}
	}
	return v, ok
}
