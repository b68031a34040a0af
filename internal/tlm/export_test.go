package tlm

import "repro/internal/sim"

// SetQuantum changes the quantum.
func (q *QuantumKeeper) SetQuantum(t sim.Time) { q.quantum = t }

// Quantum reports the configured quantum.
func (q *QuantumKeeper) Quantum() sim.Time { return q.quantum }

// Syncs reports how many kernel synchronizations have occurred; the
// E1/E6 benchmarks use it to attribute speed-up to avoided syncs.
func (q *QuantumKeeper) Syncs() uint64 { return q.syncs }

// Stats reports the number of read and write transactions served.
func (m *Memory) Stats() (reads, writes uint64) { return m.reads, m.writes }

// Hops reports how many transactions the router has forwarded.
func (r *Router) Hops() uint64 { return r.hops }

// Contains reports whether addr lies inside the granted window.
func (d *DMIData) Contains(addr uint64) bool {
	return addr >= d.StartAddr && addr <= d.EndAddr
}

// Bound reports whether the socket has a target.
func (s *InitiatorSocket) Bound() bool { return s.target != nil }

// TargetFunc adapts a plain function to the Target interface.
type TargetFunc func(p *Payload, delay *sim.Time)

// BTransport implements Target.
func (f TargetFunc) BTransport(p *Payload, delay *sim.Time) { f(p, delay) }
