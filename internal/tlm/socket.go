package tlm

import (
	"fmt"

	"repro/internal/sim"
)

// Target is the blocking-transport interface a TLM target implements.
type Target interface {
	// BTransport executes the transaction, annotating consumed time
	// onto *delay (loosely-timed style: the caller's local time offset
	// advances; simulated time does not move inside the call).
	BTransport(p *Payload, delay *sim.Time)
}

// DebugTarget is optionally implemented by targets that support
// zero-time debug access (backdoor reads for monitors and injectors).
type DebugTarget interface {
	// TransportDbg performs the access without timing or side effects
	// and returns the number of bytes transferred.
	TransportDbg(p *Payload) int
}

// InitiatorSocket is the initiator-side binding point. It forwards
// blocking transport calls to the bound target and offers convenience
// read/write helpers.
type InitiatorSocket struct {
	name   string
	target Target
	// word and wordBuf are Read32's and Write32's payload and data. The
	// payload escapes through the Target interface, so a fresh one per
	// word access cost two heap objects an instruction fetch. A socket is
	// one initiator's, which has one blocking access in flight at a time.
	word    Payload
	wordBuf [4]byte
}

// NewInitiatorSocket creates a named, unbound initiator socket.
func NewInitiatorSocket(name string) *InitiatorSocket {
	return &InitiatorSocket{name: name}
}

// Bind connects the socket to a target. Binding twice is a wiring bug
// and panics during elaboration rather than corrupting a simulation.
func (s *InitiatorSocket) Bind(t Target) {
	if s.target != nil {
		panic(fmt.Sprintf("tlm: socket %q already bound", s.name))
	}
	s.target = t
}

// BTransport forwards the transaction to the bound target.
func (s *InitiatorSocket) BTransport(p *Payload, delay *sim.Time) {
	if s.target == nil {
		panic(fmt.Sprintf("tlm: socket %q not bound", s.name))
	}
	s.target.BTransport(p, delay)
}

// TransportDbg forwards a debug access; it returns 0 when the bound
// target has no debug interface.
func (s *InitiatorSocket) TransportDbg(p *Payload) int {
	if dt, ok := s.target.(DebugTarget); ok {
		return dt.TransportDbg(p)
	}
	return 0
}

// Read performs a blocking read of n bytes at addr and returns the data
// and response.
func (s *InitiatorSocket) Read(addr uint64, n int, delay *sim.Time) ([]byte, Response) {
	p := NewRead(addr, n)
	s.BTransport(p, delay)
	return p.Data, p.Response
}

// Write performs a blocking write of data at addr.
func (s *InitiatorSocket) Write(addr uint64, data []byte, delay *sim.Time) Response {
	p := NewWrite(addr, data)
	s.BTransport(p, delay)
	return p.Response
}

// Read32 reads a little-endian 32-bit word.
func (s *InitiatorSocket) Read32(addr uint64, delay *sim.Time) (uint32, Response) {
	s.wordBuf = [4]byte{}
	p := s.wordPayload(CmdRead, addr)
	s.BTransport(p, delay)
	if !p.Response.OK() {
		return 0, p.Response
	}
	d := p.Data
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, p.Response
}

// Write32 writes a little-endian 32-bit word.
func (s *InitiatorSocket) Write32(addr uint64, v uint32, delay *sim.Time) Response {
	s.wordBuf = [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	p := s.wordPayload(CmdWrite, addr)
	s.BTransport(p, delay)
	return p.Response
}

// wordPayload is the socket's word payload, set up for one access.
func (s *InitiatorSocket) wordPayload(cmd Command, addr uint64) *Payload {
	s.word = Payload{Command: cmd, Address: addr, Data: s.wordBuf[:]}
	return &s.word
}
