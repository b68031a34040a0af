package ecu

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble translates AE32 assembly into machine words (two passes:
// label collection, then encoding). Syntax, one instruction or label
// per line, ';' or '#' starts a comment:
//
//	loop:               ; label
//	  addi r1, r0, 10   ; immediate arithmetic
//	  lw   r2, 4(r3)    ; load with displacement
//	  sw   r2, 0(r4)
//	  beq  r1, r2, done ; branches take labels or numeric word offsets
//	  jal  r14, loop
//	done:
//	  halt
//	.word 0xdeadbeef    ; literal data word
//
// Register names are r0..r15. Branch/JAL label targets are converted
// to word-relative offsets from the *next* instruction.
func Assemble(src string) ([]uint32, error) {
	type line struct {
		no   int
		text string
	}
	var lines []line
	labels := map[string]int{} // label -> word index
	word := 0
	for no, raw := range strings.Split(src, "\n") {
		text := raw
		if i := strings.IndexAny(text, ";#"); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		for {
			if i := strings.Index(text, ":"); i >= 0 {
				label := strings.TrimSpace(text[:i])
				if label == "" || strings.ContainsAny(label, " \t") {
					return nil, fmt.Errorf("ecu: line %d: bad label %q", no+1, label)
				}
				if _, dup := labels[label]; dup {
					return nil, fmt.Errorf("ecu: line %d: duplicate label %q", no+1, label)
				}
				labels[label] = word
				text = strings.TrimSpace(text[i+1:])
				continue
			}
			break
		}
		if text == "" {
			continue
		}
		lines = append(lines, line{no: no + 1, text: text})
		word++
	}

	parseReg := func(s string) (uint8, error) {
		s = strings.TrimSpace(s)
		if !strings.HasPrefix(s, "r") && !strings.HasPrefix(s, "R") {
			return 0, fmt.Errorf("bad register %q", s)
		}
		n, err := strconv.Atoi(s[1:])
		if err != nil || n < 0 || n > 15 {
			return 0, fmt.Errorf("bad register %q", s)
		}
		return uint8(n), nil
	}
	parseImm := func(s string) (int32, error) {
		s = strings.TrimSpace(s)
		v, err := strconv.ParseInt(s, 0, 32)
		if err != nil {
			return 0, fmt.Errorf("bad immediate %q", s)
		}
		if v < -2048 || v > 2047 {
			return 0, fmt.Errorf("immediate %d out of 12-bit range", v)
		}
		return int32(v), nil
	}
	// branch target: label or numeric offset.
	parseTarget := func(s string, at int) (int32, error) {
		s = strings.TrimSpace(s)
		if idx, ok := labels[s]; ok {
			off := idx - (at + 1)
			if off < -2048 || off > 2047 {
				return 0, fmt.Errorf("branch to %q out of range (%d words)", s, off)
			}
			return int32(off), nil
		}
		return parseImm(s)
	}
	// memory operand: imm(rN)
	parseMem := func(s string) (int32, uint8, error) {
		s = strings.TrimSpace(s)
		open := strings.Index(s, "(")
		if open < 0 || !strings.HasSuffix(s, ")") {
			return 0, 0, fmt.Errorf("bad memory operand %q", s)
		}
		immStr := strings.TrimSpace(s[:open])
		if immStr == "" {
			immStr = "0"
		}
		imm, err := parseImm(immStr)
		if err != nil {
			return 0, 0, err
		}
		reg, err := parseReg(s[open+1 : len(s)-1])
		if err != nil {
			return 0, 0, err
		}
		return imm, reg, nil
	}

	var out []uint32
	for at, ln := range lines {
		fields := strings.SplitN(ln.text, " ", 2)
		mnem := strings.ToLower(strings.TrimSpace(fields[0]))
		rest := ""
		if len(fields) > 1 {
			rest = fields[1]
		}
		ops := strings.Split(rest, ",")
		for i := range ops {
			ops[i] = strings.TrimSpace(ops[i])
		}
		fail := func(err error) ([]uint32, error) {
			return nil, fmt.Errorf("ecu: line %d (%q): %w", ln.no, ln.text, err)
		}
		need := func(n int) error {
			if rest == "" && n > 0 {
				return fmt.Errorf("expected %d operands", n)
			}
			if n > 0 && len(ops) != n {
				return fmt.Errorf("expected %d operands, got %d", n, len(ops))
			}
			return nil
		}

		switch mnem {
		case ".word":
			v, err := strconv.ParseUint(strings.TrimSpace(rest), 0, 32)
			if err != nil {
				return fail(fmt.Errorf("bad .word %q", rest))
			}
			out = append(out, uint32(v))
		case "nop":
			out = append(out, Encode(Instr{Op: OpNOP}))
		case "halt":
			out = append(out, Encode(Instr{Op: OpHALT}))
		case "reti":
			out = append(out, Encode(Instr{Op: OpRETI}))
		case "add", "sub", "and", "or", "xor", "shl", "shr", "mul":
			if err := need(3); err != nil {
				return fail(err)
			}
			rd, err := parseReg(ops[0])
			if err != nil {
				return fail(err)
			}
			rs1, err := parseReg(ops[1])
			if err != nil {
				return fail(err)
			}
			rs2, err := parseReg(ops[2])
			if err != nil {
				return fail(err)
			}
			opm := map[string]Opcode{"add": OpADD, "sub": OpSUB, "and": OpAND, "or": OpOR,
				"xor": OpXOR, "shl": OpSHL, "shr": OpSHR, "mul": OpMUL}
			out = append(out, Encode(Instr{Op: opm[mnem], Rd: rd, Rs1: rs1, Rs2: rs2}))
		case "addi":
			if err := need(3); err != nil {
				return fail(err)
			}
			rd, err := parseReg(ops[0])
			if err != nil {
				return fail(err)
			}
			rs1, err := parseReg(ops[1])
			if err != nil {
				return fail(err)
			}
			imm, err := parseImm(ops[2])
			if err != nil {
				return fail(err)
			}
			out = append(out, Encode(Instr{Op: OpADDI, Rd: rd, Rs1: rs1, Imm: imm}))
		case "lui":
			if err := need(2); err != nil {
				return fail(err)
			}
			rd, err := parseReg(ops[0])
			if err != nil {
				return fail(err)
			}
			imm, err := parseImm(ops[1])
			if err != nil {
				return fail(err)
			}
			out = append(out, Encode(Instr{Op: OpLUI, Rd: rd, Imm: imm}))
		case "lw":
			if err := need(2); err != nil {
				return fail(err)
			}
			rd, err := parseReg(ops[0])
			if err != nil {
				return fail(err)
			}
			imm, rs1, err := parseMem(ops[1])
			if err != nil {
				return fail(err)
			}
			out = append(out, Encode(Instr{Op: OpLW, Rd: rd, Rs1: rs1, Imm: imm}))
		case "sw":
			if err := need(2); err != nil {
				return fail(err)
			}
			rs2, err := parseReg(ops[0])
			if err != nil {
				return fail(err)
			}
			imm, rs1, err := parseMem(ops[1])
			if err != nil {
				return fail(err)
			}
			out = append(out, Encode(Instr{Op: OpSW, Rs1: rs1, Rs2: rs2, Imm: imm}))
		case "beq", "bne", "blt", "bge":
			if err := need(3); err != nil {
				return fail(err)
			}
			rs1, err := parseReg(ops[0])
			if err != nil {
				return fail(err)
			}
			rs2, err := parseReg(ops[1])
			if err != nil {
				return fail(err)
			}
			off, err := parseTarget(ops[2], at)
			if err != nil {
				return fail(err)
			}
			opm := map[string]Opcode{"beq": OpBEQ, "bne": OpBNE, "blt": OpBLT, "bge": OpBGE}
			out = append(out, Encode(Instr{Op: opm[mnem], Rs1: rs1, Rs2: rs2, Imm: off}))
		case "jal":
			if err := need(2); err != nil {
				return fail(err)
			}
			rd, err := parseReg(ops[0])
			if err != nil {
				return fail(err)
			}
			off, err := parseTarget(ops[1], at)
			if err != nil {
				return fail(err)
			}
			out = append(out, Encode(Instr{Op: OpJAL, Rd: rd, Imm: off}))
		case "jalr":
			if err := need(3); err != nil {
				return fail(err)
			}
			rd, err := parseReg(ops[0])
			if err != nil {
				return fail(err)
			}
			rs1, err := parseReg(ops[1])
			if err != nil {
				return fail(err)
			}
			imm, err := parseImm(ops[2])
			if err != nil {
				return fail(err)
			}
			out = append(out, Encode(Instr{Op: OpJALR, Rd: rd, Rs1: rs1, Imm: imm}))
		default:
			return fail(fmt.Errorf("unknown mnemonic %q", mnem))
		}
	}
	return out, nil
}
