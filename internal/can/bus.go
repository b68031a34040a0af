package can

import (
	"fmt"

	"repro/internal/sim"
)

// NodeState is the CAN fault-confinement state.
type NodeState uint8

const (
	// ErrorActive is the healthy state (TEC/REC <= 127).
	ErrorActive NodeState = iota
	// ErrorPassive throttles error signalling (TEC or REC > 127).
	ErrorPassive
	// BusOff removes the node from the bus (TEC > 255).
	BusOff
)

// String names the state.
func (s NodeState) String() string {
	switch s {
	case ErrorActive:
		return "error-active"
	case ErrorPassive:
		return "error-passive"
	case BusOff:
		return "bus-off"
	default:
		return fmt.Sprintf("NodeState(%d)", uint8(s))
	}
}

// Node is one CAN controller attached to a bus.
type Node struct {
	name string
	bus  *Bus
	// OnReceive delivers accepted frames (all IDs; filtering is the
	// application's concern). f.Data aliases the bus's delivery buffer and
	// is valid until the callback returns: copy what must outlive it (see
	// the package doc).
	OnReceive func(f Frame, at sim.Time)

	// queue holds the frames waiting to be sent, oldest first. It is a
	// window sliding along qbuf's array: pop moves its start, push slides
	// it back over the sent frames when it reaches the end, so both are
	// O(1) at any depth and the array is kept from run to run.
	queue []frame
	qbuf  []frame

	controller
}

// controller is a node's scalar run state: fault confinement and the
// babbling-idiot latch.
type controller struct {
	tec, rec int
	state    NodeState
	// Babbling makes the node continuously transmit highest-priority
	// junk frames (the babbling-idiot fault).
	Babbling bool
}

// Send queues a frame for transmission, copying its payload: the
// caller's buffer is its own again when Send returns. Bus-off nodes
// drop it.
func (n *Node) Send(f Frame) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if n.state == BusOff {
		return fmt.Errorf("can: node %s is bus-off", n.name)
	}
	n.push(stored(f))
	n.bus.kick()
	return nil
}

// push queues f behind the frames waiting.
func (n *Node) push(f frame) {
	if len(n.queue) == cap(n.queue) {
		// The window stands at the end of its array (or has none yet).
		// With at least as many sent frames before it as live ones in it,
		// slide it back to the start — at most one copy per frame pushed —
		// and otherwise move to an array twice the size.
		if sent := cap(n.qbuf) - cap(n.queue); sent > 0 && sent >= len(n.queue) {
			n.queue = append(n.qbuf[:0], n.queue...)
		} else {
			n.qbuf = make([]frame, 0, 2*cap(n.qbuf)+4)
			n.queue = append(n.qbuf, n.queue...)
		}
	}
	n.queue = append(n.queue, f)
}

// pop drops the oldest queued frame.
func (n *Node) pop() {
	if n.queue = n.queue[1:]; len(n.queue) == 0 {
		n.queue = n.qbuf[:0]
	}
}

// setQueue replaces the queued frames with a copy of frames.
func (n *Node) setQueue(frames []frame) {
	n.queue = append(n.qbuf[:0], frames...)
	n.qbuf = n.queue[:0]
}

// bumpTxError applies the transmit-error penalty (+8 per the spec)
// and updates the state machine.
func (n *Node) bumpTxError() {
	n.tec += 8
	n.updateState()
}

// bumpRxError applies the receive-error penalty (+1).
func (n *Node) bumpRxError() {
	n.rec++
	n.updateState()
}

// decay rewards successful traffic (spec: -1 per success).
func (n *Node) decayTx() {
	if n.tec > 0 {
		n.tec--
	}
	n.updateState()
}

func (n *Node) decayRx() {
	if n.rec > 0 {
		n.rec--
	}
	n.updateState()
}

func (n *Node) updateState() {
	switch {
	case n.tec > 255:
		if n.state != BusOff {
			n.state = BusOff
			n.queue = n.qbuf[:0]
		}
	case n.tec > 127 || n.rec > 127:
		if n.state != BusOff {
			n.state = ErrorPassive
		}
	default:
		if n.state != BusOff {
			n.state = ErrorActive
		}
	}
}

// Bus is the shared medium.
type Bus struct {
	k *sim.Kernel
	// BitTime is the duration of one bit (500 kbit/s default).
	BitTime sim.Time
	// MaxRetries bounds automatic retransmission per frame.
	MaxRetries int

	nodes []*Node
	wake  *sim.Event

	// in-flight transmission, completed by the persistent txdone
	// process (one event + one method for the bus's lifetime, not one
	// pair per arbitration round — the CAN hot path must not grow the
	// kernel's process table per frame).
	txdone   *sim.Event
	txWinner *Node
	// rx is the delivery buffer: the frame every OnReceive of one
	// completed transmission sees, through a Frame that aliases it.
	rx frame
	// cont is the contenders scratch buffer, reused per round.
	cont []*Node

	// fault injection
	retriesLeft map[*Node]int
	babbleFrame frame

	channel
}

// channel is the bus's scalar run state: the frame in flight and the
// channel-fault budgets.
type channel struct {
	busy        bool
	txFrame     frame
	corruptNext int // corrupt the next n frames in transit
	dropNext    int // silently drop the next n frames
}

// NewBus creates a bus on the kernel at 500 kbit/s.
func NewBus(k *sim.Kernel, name string) *Bus {
	b := &Bus{
		k:           k,
		BitTime:     sim.US(2),
		MaxRetries:  8,
		retriesLeft: make(map[*Node]int),
		babbleFrame: frame{id: 0, n: 1},
	}
	b.wake = k.NewEvent(name + ".wake")
	k.MethodNoInit(name+".arbitrate", b.arbitrate, b.wake)
	b.txdone = k.NewEvent(name + ".txdone")
	k.MethodNoInit(name+".complete", b.completePending, b.txdone)
	return b
}

// Attach creates a node on the bus.
func (b *Bus) Attach(name string) *Node {
	n := &Node{name: name, bus: b}
	b.nodes = append(b.nodes, n)
	return n
}

// CorruptNextFrames makes the next n frames arrive with a flipped
// payload bit (detected by CRC at the receivers).
func (b *Bus) CorruptNextFrames(n int) { b.corruptNext += n }

// DropNextFrames makes the next n frames vanish in transit (the
// omission fault; receivers see nothing, the sender believes it sent).
func (b *Bus) DropNextFrames(n int) { b.dropNext += n }

// kick schedules an arbitration round.
func (b *Bus) kick() {
	if !b.busy {
		b.wake.Notify(0)
	}
}

// contenders lists nodes with traffic, including babbling ones. The
// returned slice is the bus's scratch buffer, valid until the next
// round.
func (b *Bus) contenders() []*Node {
	out := b.cont[:0]
	for _, n := range b.nodes {
		if n.state == BusOff {
			continue
		}
		if n.Babbling && len(n.queue) == 0 {
			n.push(b.babbleFrame)
		}
		if len(n.queue) > 0 {
			out = append(out, n)
		}
	}
	b.cont = out
	return out
}

// arbitrate resolves one arbitration round and schedules the winning
// frame's completion.
func (b *Bus) arbitrate() {
	if b.busy {
		return
	}
	cont := b.contenders()
	if len(cont) == 0 {
		return
	}
	// Lowest ID wins; ties resolve by attachment order (real CAN
	// cannot have ID ties on a correct network). Stable insertion sort:
	// the slice holds a handful of nodes and, unlike sort.SliceStable,
	// this allocates nothing on the per-frame hot path.
	for i := 1; i < len(cont); i++ {
		n := cont[i]
		j := i - 1
		for j >= 0 && cont[j].queue[0].id > n.queue[0].id {
			cont[j+1] = cont[j]
			j--
		}
		cont[j+1] = n
	}
	winner := cont[0]
	f := winner.queue[0]
	b.busy = true
	dur := sim.Time(f.view().Bits()) * b.BitTime
	b.txWinner = winner
	b.txFrame = f
	b.txdone.Notify(dur)
}

// completePending runs when the in-flight frame's transmission time
// elapses.
func (b *Bus) completePending() {
	w, f := b.txWinner, b.txFrame
	if w == nil {
		return
	}
	b.txWinner = nil
	b.txFrame = frame{}
	b.complete(w, f)
}

// complete finishes a transmission: apply channel faults, deliver or
// signal errors, then re-arm arbitration.
func (b *Bus) complete(sender *Node, f frame) {
	b.busy = false
	switch {
	case b.dropNext > 0:
		b.dropNext--
		// Omission: the frame is gone. The sender still dequeues (a
		// transceiver-level fault invisible to the controller).
		sender.pop()
	case b.corruptNext > 0:
		b.corruptNext--
		// Receivers detect the CRC mismatch and signal an error frame:
		// the sender's TEC jumps, receivers' REC tick up, and the
		// frame is retransmitted unless the retry budget is exhausted.
		for _, n := range b.nodes {
			if n != sender && n.state != BusOff {
				n.bumpRxError()
			}
		}
		sender.bumpTxError()
		if _, ok := b.retriesLeft[sender]; !ok {
			b.retriesLeft[sender] = b.MaxRetries
		}
		b.retriesLeft[sender]--
		if b.retriesLeft[sender] <= 0 || sender.state == BusOff {
			// Give up on this frame.
			if len(sender.queue) > 0 {
				sender.pop()
			}
			delete(b.retriesLeft, sender)
		}
	default:
		// Clean delivery.
		sender.pop()
		sender.decayTx()
		delete(b.retriesLeft, sender)
		b.rx = f
		now := b.k.Now()
		for _, n := range b.nodes {
			if n == sender || n.state == BusOff {
				continue
			}
			n.decayRx()
			if n.OnReceive != nil {
				n.OnReceive(b.rx.view(), now)
			}
		}
	}
	b.kick()
}

// nodeState is one node's mutable state inside a BusState.
type nodeState struct {
	controller
	queue []frame
}

// BusState is an opaque deep copy of the bus's mutable state — traffic
// queues, error counters, the in-flight transmission and the
// channel-fault budgets — captured by SnapshotState for
// golden-run checkpointing. Frames carry their payload inline, so the
// capture shares no bytes with the live bus.
type BusState struct {
	channel
	txWinner    int         // index into nodes, -1 when no frame is in flight
	retriesLeft map[int]int // by node index
	nodes       []nodeState
}

// SnapshotState implements sim.Snapshottable, reusing prev's buffers
// (queues, retry map) so checkpoint trees fork allocation-free in
// steady state. Pair it with the kernel's own SnapshotInto: the pending
// txdone/wake notifications live in the kernel checkpoint, this
// captures everything else.
func (b *Bus) SnapshotState(prev any) any {
	st, _ := prev.(*BusState)
	if st == nil {
		st = &BusState{retriesLeft: map[int]int{}}
	}
	st.channel = b.channel
	st.txWinner = -1
	clear(st.retriesLeft)
	if cap(st.nodes) < len(b.nodes) {
		st.nodes = make([]nodeState, len(b.nodes))
	}
	st.nodes = st.nodes[:len(b.nodes)]
	for i, n := range b.nodes {
		if n == b.txWinner {
			st.txWinner = i
		}
		if left, ok := b.retriesLeft[n]; ok {
			st.retriesLeft[i] = left
		}
		ns := &st.nodes[i]
		ns.controller = n.controller
		ns.queue = append(ns.queue[:0], n.queue...)
	}
	return st
}

// HashState implements sim.Hashable, folding the bus state that can
// influence future traffic or deliveries: the in-flight transmission,
// channel-fault budgets, retry budgets, and each node's error
// counters, confinement state, queue and babbling flag.
func (b *Bus) HashState(h *sim.StateHash) {
	h.Bool(b.busy)
	wi := -1
	for i, n := range b.nodes {
		if n == b.txWinner {
			wi = i
		}
	}
	h.Int(wi)
	hashFrame(h, &b.txFrame)
	h.Int(b.corruptNext)
	h.Int(b.dropNext)
	for _, n := range b.nodes {
		left, ok := b.retriesLeft[n]
		h.Bool(ok)
		if ok {
			h.Int(left)
		}
		h.Int(n.tec)
		h.Int(n.rec)
		h.Byte(byte(n.state))
		h.Int(len(n.queue))
		for i := range n.queue {
			hashFrame(h, &n.queue[i])
		}
		h.Bool(n.Babbling)
	}
}

// hashFrame folds one frame: identifier and payload, as a Frame's ID
// and Data.
func hashFrame(h *sim.StateHash, f *frame) {
	h.U32(uint32(f.id))
	h.Bytes(f.data[:f.n])
}

// RestoreState implements sim.Snapshottable, writing a SnapshotState
// capture back into the live bus and nodes without aliasing it.
func (b *Bus) RestoreState(state any) {
	st := state.(*BusState)
	b.channel = st.channel
	b.txWinner = nil
	if st.txWinner >= 0 {
		b.txWinner = b.nodes[st.txWinner]
	}
	clear(b.retriesLeft)
	for i, left := range st.retriesLeft {
		b.retriesLeft[b.nodes[i]] = left
	}
	for i, n := range b.nodes {
		n.controller = st.nodes[i].controller
		n.setQueue(st.nodes[i].queue)
	}
}
