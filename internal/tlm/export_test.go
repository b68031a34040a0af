package tlm

import "repro/internal/sim"

// SetQuantum changes the quantum.
func (q *QuantumKeeper) SetQuantum(t sim.Time) { q.quantum = t }

// Quantum reports the configured quantum.
func (q *QuantumKeeper) Quantum() sim.Time { return q.quantum }

// Stats reports the number of read and write transactions served.
func (m *Memory) Stats() (reads, writes uint64) { return m.reads, m.writes }

// Bound reports whether the socket has a target.
func (s *InitiatorSocket) Bound() bool { return s.target != nil }

// TargetFunc adapts a plain function to the Target interface.
type TargetFunc func(p *Payload, delay *sim.Time)

// BTransport implements Target.
func (f TargetFunc) BTransport(p *Payload, delay *sim.Time) { f(p, delay) }
