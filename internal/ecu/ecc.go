package ecu

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/tlm"
)

// ECC implements SECDED (single-error-correct, double-error-detect)
// Hamming coding of 32-bit words: 6 Hamming check bits plus one
// overall parity bit. It is the canonical memory protection mechanism
// whose diagnostic coverage the FMEDA experiments credit.

// ECCStatus is the result of decoding a protected word.
type ECCStatus uint8

const (
	// ECCOk: no error.
	ECCOk ECCStatus = iota
	// ECCCorrected: a single bit error was corrected.
	ECCCorrected
	// ECCUncorrectable: a double bit error was detected.
	ECCUncorrectable
)

// String names the status.
func (s ECCStatus) String() string {
	switch s {
	case ECCOk:
		return "ok"
	case ECCCorrected:
		return "corrected"
	case ECCUncorrectable:
		return "uncorrectable"
	default:
		return fmt.Sprintf("ECCStatus(%d)", uint8(s))
	}
}

// codeword layout: positions 1..38; check bits at powers of two
// (1,2,4,8,16,32), data bits fill the remaining 32 positions in
// ascending order. Position 0 holds the overall parity bit.

// dataPositions[i] is the codeword position of data bit i.
var dataPositions = func() [32]int {
	var out [32]int
	i := 0
	for pos := 1; pos <= 38 && i < 32; pos++ {
		if pos&(pos-1) == 0 { // power of two: check bit
			continue
		}
		out[i] = pos
		i++
	}
	return out
}()

// hammingMasks[b] selects the data bits whose codeword position has
// bit b set: check bit b is their parity.
var hammingMasks = func() [6]uint32 {
	var out [6]uint32
	for i, pos := range dataPositions {
		for b := range out {
			if pos&(1<<b) != 0 {
				out[b] |= 1 << i
			}
		}
	}
	return out
}()

// eccEncode computes the 7 check bits (6 Hamming + overall parity in
// bit 6) for a data word. Overall parity covers the data bits and the
// six check bits.
func eccEncode(data uint32) uint8 {
	check := parity32(data&hammingMasks[0]) |
		parity32(data&hammingMasks[1])<<1 |
		parity32(data&hammingMasks[2])<<2 |
		parity32(data&hammingMasks[3])<<3 |
		parity32(data&hammingMasks[4])<<4 |
		parity32(data&hammingMasks[5])<<5
	return check | (parity32(data)^parity32(uint32(check)))<<6
}

// parity32 computes the parity of a 32-bit word.
func parity32(v uint32) uint8 {
	v ^= v >> 16
	v ^= v >> 8
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return uint8(v & 1)
}

// eccDecode checks and (when possible) corrects a received word.
// The syndrome compares received check bits against ones recomputed
// from received data; the overall parity is computed over the whole
// received codeword (data + check + parity bit), so any single flip —
// including in a check bit — makes it odd.
func eccDecode(data uint32, check uint8) (corrected uint32, status ECCStatus) {
	expect := eccEncode(data)
	syndrome := (check ^ expect) & 0x3f
	var chkParity uint8
	for b := 0; b < 7; b++ {
		chkParity ^= check >> uint(b) & 1
	}
	parityErr := parity32(data)^chkParity == 1
	switch {
	case syndrome == 0 && !parityErr:
		return data, ECCOk
	case parityErr:
		// Single-bit error at codeword position = syndrome (0 means
		// the overall parity bit itself flipped; check-bit positions
		// mean a check bit flipped — data unaffected either way).
		if syndrome != 0 && int(syndrome)&(int(syndrome)-1) != 0 {
			// Data-bit position: locate and flip.
			for i := 0; i < 32; i++ {
				if dataPositions[i] == int(syndrome) {
					return data ^ 1<<uint(i), ECCCorrected
				}
			}
		}
		return data, ECCCorrected
	default:
		// Non-zero syndrome with good parity: double error.
		return data, ECCUncorrectable
	}
}

// ECCMemory is a word-organized memory target with SECDED protection:
// reads transparently correct single-bit upsets and fail (bus error)
// on uncorrectable double errors. Accesses must be 4-byte aligned
// whole words, matching the AE32 bus.
//
// The stored codewords live in a sim.PagedState, one per cell — data
// word in bits 0..31, check bits in 32..38 — so every write (bus,
// scrub, debug port, injected upset) passes its dirty barrier, and
// digests and checkpoint restores cost what a run wrote rather than
// what the memory holds.
type ECCMemory struct {
	base uint64
	mem  *sim.PagedState

	eccCounters
}

// eccCounters is the memory's run state: its detection outputs.
type eccCounters struct {
	corrected     uint64
	uncorrectable uint64
}

// codewordBytes is the cell width that holds a 39-bit codeword.
const codewordBytes = 5

// encoded is the clean codeword of a data word: the word in bits
// 0..31, its check bits above.
func encoded(data uint32) uint64 { return uint64(data) | uint64(eccEncode(data))<<32 }

// zeroCodeword is the clean codeword of a zeroed data word,
// precomputed so bulk initialization does not re-derive it per cell.
var zeroCodeword = encoded(0)

// NewECCMemory creates size bytes (rounded down to whole words) at
// base.
func NewECCMemory(base uint64, size int) *ECCMemory {
	return &ECCMemory{base: base, mem: sim.NewPagedState(size/4, codewordBytes, zeroCodeword)}
}

// Stats reports corrected and uncorrectable error counts — the
// diagnostic-coverage evidence for FMEDA.
func (m *ECCMemory) Stats() (corrected, uncorrectable uint64) {
	return m.corrected, m.uncorrectable
}

func (m *ECCMemory) index(addr uint64, n int) (int, bool) {
	if addr%4 != 0 || n != 4 {
		return 0, false
	}
	if addr < m.base {
		return 0, false
	}
	i := int((addr - m.base) / 4)
	if i >= m.mem.Len() {
		return 0, false
	}
	return i, true
}

// BTransport implements tlm.Target.
func (m *ECCMemory) BTransport(p *tlm.Payload, delay *sim.Time) {
	i, ok := m.index(p.Address, len(p.Data))
	if !ok {
		if p.Address%4 != 0 || len(p.Data) != 4 {
			p.Response = tlm.RespBurstError
		} else {
			p.Response = tlm.RespAddressError
		}
		return
	}
	switch p.Command {
	case tlm.CmdRead:
		cw := m.mem.Load(i)
		data, status := eccDecode(uint32(cw), uint8(cw>>32))
		switch status {
		case ECCCorrected:
			m.corrected++
			// Scrub: write back the corrected word.
			m.mem.Store(i, encoded(data))
		case ECCUncorrectable:
			m.uncorrectable++
			p.Response = tlm.RespGenericError
			return
		}
		p.Data[0] = byte(data)
		p.Data[1] = byte(data >> 8)
		p.Data[2] = byte(data >> 16)
		p.Data[3] = byte(data >> 24)
	case tlm.CmdWrite:
		v := uint32(p.Data[0]) | uint32(p.Data[1])<<8 | uint32(p.Data[2])<<16 | uint32(p.Data[3])<<24
		m.mem.Store(i, encoded(v))
	default:
		p.Response = tlm.RespCommandError
		return
	}
	p.Response = tlm.RespOK
}

// TransportDbg implements tlm.DebugTarget (no correction, no stats).
func (m *ECCMemory) TransportDbg(p *tlm.Payload) int {
	// Debug access works in whole words from the aligned base.
	if p.Address%4 != 0 || len(p.Data)%4 != 0 {
		p.Response = tlm.RespBurstError
		return 0
	}
	n := len(p.Data) / 4
	for w := 0; w < n; w++ {
		i, ok := m.index(p.Address+uint64(4*w), 4)
		if !ok {
			p.Response = tlm.RespAddressError
			return 0
		}
		switch p.Command {
		case tlm.CmdRead:
			v := uint32(m.mem.Load(i))
			p.Data[4*w] = byte(v)
			p.Data[4*w+1] = byte(v >> 8)
			p.Data[4*w+2] = byte(v >> 16)
			p.Data[4*w+3] = byte(v >> 24)
		case tlm.CmdWrite:
			v := uint32(p.Data[4*w]) | uint32(p.Data[4*w+1])<<8 | uint32(p.Data[4*w+2])<<16 | uint32(p.Data[4*w+3])<<24
			m.mem.Store(i, encoded(v))
		}
	}
	p.Response = tlm.RespOK
	return len(p.Data)
}

// FlipStoredBit injects an upset directly into the stored codeword:
// bit 0..31 hits the data word, 32..38 hits the check bits. The ECC
// logic sees it on the next read.
func (m *ECCMemory) FlipStoredBit(addr uint64, bit uint) error {
	i, ok := m.index(addr, 4)
	if !ok {
		return fmt.Errorf("ecu: FlipStoredBit(%#x): unmapped or unaligned", addr)
	}
	if bit >= 39 {
		return fmt.Errorf("ecu: FlipStoredBit: bit %d out of codeword", bit)
	}
	m.mem.Store(i, m.mem.Load(i)^1<<bit)
	return nil
}
