// Package ecu implements the virtual ECU substrate: the AE32 32-bit
// RISC instruction set with CPU core, a two-pass assembler, SECDED
// ECC memory, a windowed watchdog, dual-core lockstep execution with a
// store comparator, and an RTOS-lite periodic task scheduler with
// deadline monitoring.
//
// The paper's Sec. 3.4 demands exactly this substrate: stress tests
// "directly translate to the simulation of a vast amount of
// instructions of the embedded cores", software runs "several
// concurrent tasks that exhibit hard and soft real-time constraints",
// and protection mechanisms (ECC, watchdog, lockstep) are what
// separates a masked error from a safety-critical failure. The CPU is
// a loosely-timed TLM initiator whose run loop synchronizes by quantum;
// the scheduler's tasks are the workload of the temporal-decoupling
// experiment E6.
//
// The core has no interrupt line. RETI keeps its opcode, because a
// corrupted instruction word can decode to it, and jumps to address 0.
package ecu

import "fmt"

// Opcode enumerates AE32 instructions.
type Opcode uint8

// AE32 opcodes. Encoding: [31:24] opcode, [23:20] rd, [19:16] rs1,
// [15:12] rs2, [11:0] imm12 (sign-extended where noted).
const (
	OpNOP  Opcode = iota // no operation
	OpHALT               // stop the core
	OpADD                // rd = rs1 + rs2
	OpSUB                // rd = rs1 - rs2
	OpAND                // rd = rs1 & rs2
	OpOR                 // rd = rs1 | rs2
	OpXOR                // rd = rs1 ^ rs2
	OpSHL                // rd = rs1 << (rs2 & 31)
	OpSHR                // rd = rs1 >> (rs2 & 31) (logical)
	OpMUL                // rd = rs1 * rs2
	OpADDI               // rd = rs1 + simm12
	OpLUI                // rd = imm12 << 20
	OpLW                 // rd = mem32[rs1 + simm12]
	OpSW                 // mem32[rs1 + simm12] = rs2
	OpBEQ                // if rs1 == rs2: pc += simm12*4
	OpBNE                // if rs1 != rs2: pc += simm12*4
	OpBLT                // if rs1 < rs2 (signed): pc += simm12*4
	OpBGE                // if rs1 >= rs2 (signed): pc += simm12*4
	OpJAL                // rd = pc+4; pc += simm12*4
	OpJALR               // rd = pc+4; pc = rs1 + simm12
	OpRETI               // pc = 0: the core has no interrupt line to return from
	opCount
)

var opNames = [...]string{
	OpNOP: "nop", OpHALT: "halt", OpADD: "add", OpSUB: "sub",
	OpAND: "and", OpOR: "or", OpXOR: "xor", OpSHL: "shl", OpSHR: "shr",
	OpMUL: "mul", OpADDI: "addi", OpLUI: "lui", OpLW: "lw", OpSW: "sw",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge",
	OpJAL: "jal", OpJALR: "jalr", OpRETI: "reti",
}

// String names the opcode.
func (o Opcode) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// Instr is a decoded instruction.
type Instr struct {
	Op  Opcode
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int32 // sign-extended imm12
}

// Encode packs the instruction into its 32-bit word.
func Encode(i Instr) uint32 {
	return uint32(i.Op)<<24 |
		uint32(i.Rd&0xf)<<20 |
		uint32(i.Rs1&0xf)<<16 |
		uint32(i.Rs2&0xf)<<12 |
		uint32(i.Imm)&0xfff
}

// Decode unpacks a 32-bit word. Unknown opcodes decode to an error so
// corrupted instruction fetches (a classic SEU effect) surface as
// detectable illegal-instruction faults rather than silent behaviour.
func Decode(w uint32) (Instr, error) {
	op := Opcode(w >> 24)
	if op >= opCount {
		return Instr{}, fmt.Errorf("ecu: illegal opcode %#x in instruction %#08x", uint8(op), w)
	}
	imm := int32(w & 0xfff)
	if imm&0x800 != 0 {
		imm |= ^int32(0xfff) // sign extend
	}
	return Instr{
		Op:  op,
		Rd:  uint8(w >> 20 & 0xf),
		Rs1: uint8(w >> 16 & 0xf),
		Rs2: uint8(w >> 12 & 0xf),
		Imm: imm,
	}, nil
}

// String disassembles the instruction.
func (i Instr) String() string {
	switch i.Op {
	case OpNOP, OpHALT, OpRETI:
		return i.Op.String()
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSHL, OpSHR, OpMUL:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	case OpADDI:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case OpLUI:
		return fmt.Sprintf("%s r%d, %d", i.Op, i.Rd, i.Imm)
	case OpLW:
		return fmt.Sprintf("%s r%d, %d(r%d)", i.Op, i.Rd, i.Imm, i.Rs1)
	case OpSW:
		return fmt.Sprintf("%s r%d, %d(r%d)", i.Op, i.Rs2, i.Imm, i.Rs1)
	case OpBEQ, OpBNE, OpBLT, OpBGE:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case OpJAL:
		return fmt.Sprintf("%s r%d, %d", i.Op, i.Rd, i.Imm)
	case OpJALR:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	default:
		return fmt.Sprintf("%s ?", i.Op)
	}
}
