package tlm

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Memory is a byte-addressable TLM memory target with per-beat access
// latencies and backdoor access for fault injection:
// FlipBit models a single-event upset (SEU) in a memory cell, StuckAt
// models a permanent cell defect. Both are the canonical "erroneous
// data in arbitrary components, such as registers or memory cells"
// injections from Sec. 1 of the paper.
type Memory struct {
	name string
	base uint64
	data []byte

	// ReadLatency and WriteLatency are consumed per access beat
	// (one payload = one beat regardless of length, matching LT style).
	ReadLatency  sim.Time
	WriteLatency sim.Time

	stuckMask map[uint64]stuck // addr -> per-bit stuck info

	accesses
}

// accesses is the memory's scalar run state: the transactions served.
type accesses struct {
	reads, writes uint64
}

type stuck struct {
	mask  byte // bits that are stuck
	value byte // the value those bits are stuck at
}

// NewMemory creates a memory of the given size mapped at base.
func NewMemory(name string, base uint64, size int) *Memory {
	return &Memory{
		name: name, base: base, data: make([]byte, size),
		stuckMask: make(map[uint64]stuck),
	}
}

// contains reports whether the [addr, addr+n) range is fully mapped.
func (m *Memory) contains(addr uint64, n int) bool {
	return addr >= m.base && addr-m.base+uint64(n) <= uint64(len(m.data))
}

// applyStuck overlays permanent cell defects onto a read value.
func (m *Memory) applyStuck(off uint64, v byte) byte {
	if s, ok := m.stuckMask[off]; ok {
		v = v&^s.mask | s.value&s.mask
	}
	return v
}

// BTransport implements Target.
func (m *Memory) BTransport(p *Payload, delay *sim.Time) {
	if !m.contains(p.Address, len(p.Data)) {
		p.Response = RespAddressError
		return
	}
	off := p.Address - m.base
	switch p.Command {
	case CmdRead:
		m.reads++
		for i := range p.Data {
			p.Data[i] = m.applyStuck(off+uint64(i), m.data[off+uint64(i)])
		}
		*delay += m.ReadLatency
	case CmdWrite:
		m.writes++
		copy(m.data[off:], p.Data)
		*delay += m.WriteLatency
	case CmdIgnore:
		// No transfer.
	default:
		p.Response = RespCommandError
		return
	}
	p.Response = RespOK
}

// TransportDbg implements DebugTarget: zero-time backdoor access.
func (m *Memory) TransportDbg(p *Payload) int {
	if !m.contains(p.Address, len(p.Data)) {
		p.Response = RespAddressError
		return 0
	}
	off := p.Address - m.base
	switch p.Command {
	case CmdRead:
		for i := range p.Data {
			p.Data[i] = m.applyStuck(off+uint64(i), m.data[off+uint64(i)])
		}
	case CmdWrite:
		copy(m.data[off:], p.Data)
	}
	p.Response = RespOK
	return len(p.Data)
}

// FlipBit injects a single-event upset: bit (0-7) of the cell at the
// absolute address addr inverts. It returns an error when addr is
// unmapped.
func (m *Memory) FlipBit(addr uint64, bit uint) error {
	if !m.contains(addr, 1) || bit > 7 {
		return fmt.Errorf("tlm: FlipBit(0x%x, %d) outside %s", addr, bit, m.name)
	}
	m.data[addr-m.base] ^= 1 << bit
	return nil
}

// StuckAt injects a permanent cell defect: bit of the cell at addr
// reads as value until ClearFaults. Writes still update the underlying
// storage, so the defect is observable only on read — matching a
// stuck-at output fault.
func (m *Memory) StuckAt(addr uint64, bit uint, value bool) error {
	if !m.contains(addr, 1) || bit > 7 {
		return fmt.Errorf("tlm: StuckAt(0x%x, %d) outside %s", addr, bit, m.name)
	}
	off := addr - m.base
	s := m.stuckMask[off]
	s.mask |= 1 << bit
	if value {
		s.value |= 1 << bit
	} else {
		s.value &^= 1 << bit
	}
	m.stuckMask[off] = s
	return nil
}

// ClearFaults removes all stuck-at defects (bit flips are persistent
// state changes and are not reverted).
func (m *Memory) ClearFaults() {
	clear(m.stuckMask)
}

// Poke writes raw bytes without timing (test/loader backdoor).
func (m *Memory) Poke(addr uint64, data []byte) {
	copy(m.data[addr-m.base:], data)
}

// Peek reads raw bytes without timing or defect overlay.
func (m *Memory) Peek(addr uint64, n int) []byte {
	out := make([]byte, n)
	copy(out, m.data[addr-m.base:])
	return out
}

// MemoryState is an opaque deep copy of a Memory's mutable state —
// contents, stuck-at defects and access counters — captured by
// SnapshotState for golden-run checkpointing.
type MemoryState struct {
	data  []byte
	stuck map[uint64]stuck
	accesses
}

// SnapshotState implements sim.Snapshottable, reusing prev's buffers
// so checkpoint trees recycle node states allocation-free in steady
// state.
func (m *Memory) SnapshotState(prev any) any {
	st, _ := prev.(*MemoryState)
	if st == nil {
		st = &MemoryState{stuck: map[uint64]stuck{}}
	}
	st.data = append(st.data[:0], m.data...)
	clear(st.stuck)
	for k, v := range m.stuckMask {
		st.stuck[k] = v
	}
	st.accesses = m.accesses
	return st
}

// HashState implements sim.Hashable. Contents and stuck-at defects
// determine every future read, and the access counters advance in
// lockstep between behaviorally identical runs (per-cycle transaction
// counts do not depend on data values), so all of it folds in. Defects
// hash in ascending address order — map iteration order must not leak
// into the digest.
func (m *Memory) HashState(h *sim.StateHash) {
	h.Bytes(m.data)
	h.Int(len(m.stuckMask))
	if len(m.stuckMask) > 0 {
		// A stack buffer for the usual handful of stuck cells: a digest is
		// taken at every stride instant of a run.
		var buf [8]uint64
		keys := buf[:0]
		for k := range m.stuckMask {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			s := m.stuckMask[k]
			h.U64(k)
			h.Byte(s.mask)
			h.Byte(s.value)
		}
	}
	h.U64(m.reads)
	h.U64(m.writes)
}

// RestoreState implements sim.Snapshottable, writing a SnapshotState
// capture back without aliasing it into the memory.
func (m *Memory) RestoreState(state any) {
	st := state.(*MemoryState)
	copy(m.data, st.data)
	clear(m.stuckMask)
	for k, v := range st.stuck {
		m.stuckMask[k] = v
	}
	m.accesses = st.accesses
}
