package can

// State reports the fault-confinement state.
func (n *Node) State() NodeState { return n.state }

// Counters reports the transmit and receive error counters.
func (n *Node) Counters() (tec, rec int) { return n.tec, n.rec }

// Stats reports frames sent, received and error frames observed.
func (n *Node) Stats() (sent, received, errors uint64) {
	return n.sent, n.received, n.errorsSeen
}

// Pending reports queued frames.
func (n *Node) Pending() int { return len(n.queue) }

// Log returns the completed transaction records.
func (b *Bus) Log() []TxRecord { return b.log }

// Arbitrations reports how many arbitration rounds were resolved.
func (b *Bus) Arbitrations() uint64 { return b.arbitrations }
