package can

// State reports the fault-confinement state.
func (n *Node) State() NodeState { return n.state }

// Counters reports the transmit and receive error counters.
func (n *Node) Counters() (tec, rec int) { return n.tec, n.rec }

// Pending reports queued frames.
func (n *Node) Pending() int { return len(n.queue) }
