// Package rtl implements a gate-level / register-transfer-level logic
// simulation substrate: structural netlists of primitive gates over
// four-state logic, a fast levelized evaluator with stuck-at and open
// fault overlays, a library of synthesizable circuits (adders and a
// small ALU), and an adapter that runs a netlist as processes on the
// event-driven kernel.
//
// This is the "RTL and gate-level analysis" substrate of Sec. 2.2 of
// the paper: errors are injected "as bit value flips in memory cells or
// registers during logic simulation at the gate or register transfer
// level", and it provides the low level for the cross-layer
// injection-divergence experiment E2 and the bottom rung of the
// abstraction-ladder experiment E1.
package rtl

// Logic is a four-state logic value.
type Logic uint8

const (
	// L0 is logic low.
	L0 Logic = iota
	// L1 is logic high.
	L1
	// LX is unknown (uninitialized or conflicting).
	LX
	// LZ is high impedance; gates treat it as unknown.
	LZ
)

// String renders the value as 0/1/x/z.
func (l Logic) String() string {
	switch l {
	case L0:
		return "0"
	case L1:
		return "1"
	case LZ:
		return "z"
	default:
		return "x"
	}
}

// Bool converts a known value; ok is false for x/z.
func (l Logic) Bool() (v, ok bool) {
	switch l {
	case L0:
		return false, true
	case L1:
		return true, true
	default:
		return false, false
	}
}

// FromBool converts a Go bool to L0/L1.
func FromBool(b bool) Logic {
	if b {
		return L1
	}
	return L0
}

// Known reports whether the value is 0 or 1.
func (l Logic) Known() bool { return l == L0 || l == L1 }

// Not returns the four-state negation.
func (l Logic) Not() Logic {
	switch l {
	case L0:
		return L1
	case L1:
		return L0
	default:
		return LX
	}
}

// And returns the four-state conjunction: 0 dominates x.
func (a Logic) And(b Logic) Logic {
	if a == L0 || b == L0 {
		return L0
	}
	if a == L1 && b == L1 {
		return L1
	}
	return LX
}

// Or returns the four-state disjunction: 1 dominates x.
func (a Logic) Or(b Logic) Logic {
	if a == L1 || b == L1 {
		return L1
	}
	if a == L0 && b == L0 {
		return L0
	}
	return LX
}

// Xor returns the four-state exclusive or; any unknown poisons it.
func (a Logic) Xor(b Logic) Logic {
	if !a.Known() || !b.Known() {
		return LX
	}
	if a != b {
		return L1
	}
	return L0
}

// Mux returns a when sel=0, b when sel=1; an unknown select yields x
// unless both branches agree.
func Mux(sel, a, b Logic) Logic {
	switch sel {
	case L0:
		return a
	case L1:
		return b
	default:
		if a == b && a.Known() {
			return a
		}
		return LX
	}
}
