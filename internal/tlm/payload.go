// Package tlm implements transaction-level modeling in the style of
// TLM-2.0 (IEEE 1666-2011): a generic payload, blocking and
// non-blocking transport interfaces, initiator/target sockets, an
// address-decoding router, a memory target and a quantum keeper for
// temporally decoupled loosely-timed simulation.
//
// The abstraction ladder this package provides — cycle-accurate,
// approximately-timed (AT, four-phase), loosely-timed (LT) and LT with
// temporal decoupling — is the subject of the paper's speed-up claim
// (Sec. 2.3) reproduced by experiment E1, and temporal decoupling's
// accuracy trade-off is the subject of experiment E6.
package tlm

import "fmt"

// Command selects the operation a generic payload requests.
type Command uint8

const (
	// CmdIgnore requests no data transfer (used for probe/debug hops).
	CmdIgnore Command = iota
	// CmdRead transfers data from target to initiator.
	CmdRead
	// CmdWrite transfers data from initiator to target.
	CmdWrite
)

// String names the command.
func (c Command) String() string {
	switch c {
	case CmdIgnore:
		return "ignore"
	case CmdRead:
		return "read"
	case CmdWrite:
		return "write"
	default:
		return fmt.Sprintf("Command(%d)", uint8(c))
	}
}

// Response is the completion status of a transaction.
type Response uint8

const (
	// RespIncomplete means no target has acted on the transaction yet.
	RespIncomplete Response = iota
	// RespOK means the transaction completed successfully.
	RespOK
	// RespAddressError means no target claims the address.
	RespAddressError
	// RespCommandError means the target cannot perform the command.
	RespCommandError
	// RespBurstError means the length or alignment is unsupported.
	RespBurstError
	// RespGenericError is any other failure.
	RespGenericError
)

// String names the response status.
func (r Response) String() string {
	switch r {
	case RespIncomplete:
		return "incomplete"
	case RespOK:
		return "ok"
	case RespAddressError:
		return "address-error"
	case RespCommandError:
		return "command-error"
	case RespBurstError:
		return "burst-error"
	case RespGenericError:
		return "generic-error"
	default:
		return fmt.Sprintf("Response(%d)", uint8(r))
	}
}

// OK reports whether the transaction completed successfully.
func (r Response) OK() bool { return r == RespOK }

// Payload is the generic payload: one memory-mapped bus transaction.
type Payload struct {
	Command  Command
	Address  uint64
	Data     []byte
	Response Response
}

// NewRead builds a read payload for n bytes at addr.
func NewRead(addr uint64, n int) *Payload {
	return &Payload{Command: CmdRead, Address: addr, Data: make([]byte, n)}
}

// NewWrite builds a write payload carrying data at addr. The data slice
// is referenced, not copied.
func NewWrite(addr uint64, data []byte) *Payload {
	return &Payload{Command: CmdWrite, Address: addr, Data: data}
}

// String renders a compact transaction summary for logs.
func (p *Payload) String() string {
	return fmt.Sprintf("%s @0x%x len=%d %s", p.Command, p.Address, len(p.Data), p.Response)
}
