// Package can models a CAN 2.0A network at message level with the
// protocol behaviours that matter for safety evaluation: identifier-
// based arbitration (lowest ID wins, losers retry), corruption that the
// receivers' CRC check detects, with error-frame signalling,
// transmit/receive error counters with the error-active →
// error-passive → bus-off fault-confinement state machine, automatic
// retransmission, and injectable channel faults (corruption, omission,
// babbling-idiot nodes).
//
// This is the "interconnection network" substrate of the paper's
// Sec. 3.4 system picture and carries the sensor→airbag traffic of
// the CAPS case study. Message-level granularity (one event per
// frame, not per bit) is the documented abstraction: it preserves
// arbitration order, bandwidth occupancy and error confinement while
// staying fast enough for campaigns.
//
// # Frames are held by value
//
// Frame is the package's surface: an identifier and a payload slice.
// The bus itself never keeps that slice. Send copies the payload into
// the node's queue, and a queued, in-flight, logged or snapshotted
// frame is a small value with its (at most 8) payload bytes inline, so
// a frame costs no heap object anywhere on its way and the caller may
// reuse its buffer as soon as Send returns.
//
// Delivery runs the other way. The Frame handed to OnReceive has a Data
// slice that aliases one delivery buffer owned by the bus; it is valid
// until the callback returns. A receiver that wants the payload later
// copies it out. A Frame kept without copying is not an error but it is
// not that frame any more either: its ID and len(Data) stay what they
// were, and Data reads the first len(Data) bytes of the bus's delivery
// buffer — the payload of whichever frame the bus delivered last,
// zero-padded to 8 bytes (TestRetainedFrameAliasesDeliveryBuffer).
package can

import "fmt"

// MaxData is the CAN 2.0A payload limit.
const MaxData = 8

// Frame is one CAN data frame.
type Frame struct {
	// ID is the 11-bit identifier; lower wins arbitration.
	ID uint16
	// Data is the payload (0..8 bytes).
	Data []byte
}

// Validate checks identifier and payload ranges.
func (f Frame) Validate() error {
	if f.ID > 0x7ff {
		return fmt.Errorf("can: ID %#x exceeds 11 bits", f.ID)
	}
	if len(f.Data) > MaxData {
		return fmt.Errorf("can: payload %d exceeds %d bytes", len(f.Data), MaxData)
	}
	return nil
}

// String renders the frame.
func (f Frame) String() string {
	return fmt.Sprintf("id=%#03x data=% x", f.ID, f.Data)
}

// Bits approximates the frame's wire length in bits: SOF + arbitration
// (12) + control (6) + data + CRC (16) + ACK/EOF/IFS (13), plus the
// worst-case stuffing estimate of one stuff bit per five payload-
// carrying bits.
func (f Frame) Bits() int {
	base := 1 + 12 + 6 + 8*len(f.Data) + 16 + 13
	stuffable := 34 + 8*len(f.Data)
	return base + stuffable/5
}

// frame is a Frame as the bus holds it — queued, in flight, logged,
// snapshotted: by value, the payload inline. Bytes of data past n are
// zero.
type frame struct {
	id   uint16
	n    uint8
	data [MaxData]byte
}

// stored copies a validated Frame in.
func stored(f Frame) frame {
	s := frame{id: f.ID, n: uint8(len(f.Data))}
	copy(s.data[:], f.Data)
	return s
}

// view is the frame as a Frame whose Data aliases f's own bytes.
func (f *frame) view() Frame { return Frame{ID: f.id, Data: f.data[:f.n]} }
