package rtl

// This file is the synthesizable circuit library: the structural
// building blocks the experiments inject faults into. Everything is
// built from the primitive cells in netlist.go, so every internal net
// is a valid stuck-at/open fault site.

// FullAdder inserts a one-bit full adder and returns (sum, carryOut).
func FullAdder(c *Circuit, a, b, cin Net) (sum, cout Net) {
	axb := c.Xor(a, b)
	sum = c.Xor(axb, cin)
	cout = c.Or(c.And(a, b), c.And(axb, cin))
	return sum, cout
}

// RippleAdder inserts a width-|a| ripple-carry adder; a and b must have
// equal width. It returns the sum bus (LSB first) and the carry out.
func RippleAdder(c *Circuit, a, b []Net, cin Net) (sum []Net, cout Net) {
	if len(a) != len(b) {
		panic("rtl: RippleAdder width mismatch")
	}
	sum = make([]Net, len(a))
	carry := cin
	for i := range a {
		sum[i], carry = FullAdder(c, a[i], b[i], carry)
	}
	return sum, carry
}

// RippleSubtractor inserts a two's-complement subtractor a-b; it
// returns the difference bus and the borrow-free flag (carry out; 1
// means no borrow, i.e. a >= b for unsigned operands).
func RippleSubtractor(c *Circuit, a, b []Net) (diff []Net, noBorrow Net) {
	nb := make([]Net, len(b))
	for i := range b {
		nb[i] = c.Not(b[i])
	}
	return RippleAdder(c, a, nb, c.Const(L1))
}

// ALUOp selects an ALU operation (3-bit op bus encoding).
type ALUOp uint8

const (
	// ALUAdd computes a + b.
	ALUAdd ALUOp = iota
	// ALUSub computes a - b.
	ALUSub
	// ALUAnd computes a & b.
	ALUAnd
	// ALUOr computes a | b.
	ALUOr
	// ALUXor computes a ^ b.
	ALUXor
	// ALUShl computes a << 1.
	ALUShl
	// ALUShr computes a >> 1 (logical).
	ALUShr
	// ALUNot computes ^a.
	ALUNot
)

// ALU is a compiled structural ALU plus handles to its port buses —
// the gate-level DUT of the cross-layer experiment E2.
type ALU struct {
	Circuit *Circuit
	A, B    []Net
	Op      []Net
	Y       []Net
	Carry   Net
	Zero    Net
}

// NewALU builds a width-bit structural ALU with operations selected by
// a 3-bit op bus, producing a result bus plus carry and zero flags.
func NewALU(width int) *ALU {
	c := NewCircuit("alu")
	a := c.InputBus("a", width)
	b := c.InputBus("b", width)
	op := c.InputBus("op", 3)

	sum, sumC := RippleAdder(c, a, b, c.Const(L0))
	diff, diffC := RippleSubtractor(c, a, b)
	andB := make([]Net, width)
	orB := make([]Net, width)
	xorB := make([]Net, width)
	notB := make([]Net, width)
	shlB := make([]Net, width)
	shrB := make([]Net, width)
	for i := 0; i < width; i++ {
		andB[i] = c.And(a[i], b[i])
		orB[i] = c.Or(a[i], b[i])
		xorB[i] = c.Xor(a[i], b[i])
		notB[i] = c.Not(a[i])
		if i == 0 {
			shlB[i] = c.Const(L0)
		} else {
			shlB[i] = c.Buf(a[i-1])
		}
		if i == width-1 {
			shrB[i] = c.Const(L0)
		} else {
			shrB[i] = c.Buf(a[i+1])
		}
	}

	// 8:1 result mux per bit from the 3-bit op code.
	y := make([]Net, width)
	for i := 0; i < width; i++ {
		m0 := c.Mux2(op[0], sum[i], diff[i])  // op 0,1
		m1 := c.Mux2(op[0], andB[i], orB[i])  // op 2,3
		m2 := c.Mux2(op[0], xorB[i], shlB[i]) // op 4,5
		m3 := c.Mux2(op[0], shrB[i], notB[i]) // op 6,7
		lo := c.Mux2(op[1], m0, m1)
		hi := c.Mux2(op[1], m2, m3)
		y[i] = c.Mux2(op[2], lo, hi)
	}
	// Carry: valid for add/sub, 0 otherwise.
	carryAS := c.Mux2(op[0], sumC, diffC)
	isAddSub := c.Nor(op[1], op[2])
	carry := c.And(carryAS, isAddSub)
	zero := c.Nor(y...)

	c.OutputBus("y", y)
	c.Output("carry", carry)
	c.Output("zero", zero)
	return &ALU{Circuit: c, A: a, B: b, Op: op, Y: y, Carry: carry, Zero: zero}
}

// ALUGolden is the behavioural (TLM-level) reference model of the
// structural ALU: same operations computed directly on integers. The
// cross-layer experiment E2 injects matched faults into both models
// and compares outcome classifications.
func ALUGolden(op ALUOp, a, b uint64, width int) (y uint64, carry, zero bool) {
	mask := uint64(1)<<uint(width) - 1
	a &= mask
	b &= mask
	switch op {
	case ALUAdd:
		full := a + b
		y = full & mask
		carry = full > mask
	case ALUSub:
		y = (a - b) & mask
		carry = a >= b // no borrow
	case ALUAnd:
		y = a & b
	case ALUOr:
		y = a | b
	case ALUXor:
		y = a ^ b
	case ALUShl:
		y = a << 1 & mask
	case ALUShr:
		y = a >> 1
	case ALUNot:
		y = ^a & mask
	}
	return y, carry, y == 0
}

// CRC8 computes the software reference CRC-8 (poly 0x07, init 0x00).
func CRC8(data []byte) byte {
	var crc byte
	for _, d := range data {
		crc ^= d
		for i := 0; i < 8; i++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}
