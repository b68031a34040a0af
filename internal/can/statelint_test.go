package can

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// TestStateCoverageBus is the state-coverage lint on the bus and its
// nodes, caught mid-traffic: a frame in flight, frames queued behind
// it in a queue window that has already slid off the start of its
// array and a retry budget open. Every field
// is perturbed and must move the digest and survive capture → perturb
// → restore, or is listed with the reason it need not.
func TestStateCoverageBus(t *testing.T) {
	k, b := busFixture(t)
	defer k.Shutdown()
	a, c := b.Attach("a"), b.Attach("c")
	for i := 0; i < 3; i++ {
		if err := a.Send(Frame{ID: 0x10, Data: []byte{byte(i), 2}}); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(Frame{ID: 0x20, Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// One frame has been delivered and popped; the next has completed
	// corrupted (error counters, a retry budget) and its retransmission
	// is on the wire.
	if err := k.RunUntil(sim.US(150)); err != nil {
		t.Fatal(err)
	}
	b.CorruptNextFrames(2)
	if err := k.RunUntil(sim.US(300)); err != nil {
		t.Fatal(err)
	}
	if !b.busy || b.txWinner == nil || a.tec == 0 || len(b.retriesLeft) == 0 || len(a.queue) != 2 || cap(a.queue) == cap(a.qbuf) {
		t.Fatalf("bus not mid-traffic: busy=%v winner=%v tec=%d retries=%d queue=%d (cap %d of %d)",
			b.busy, b.txWinner, a.tec, len(b.retriesLeft), len(a.queue), cap(a.queue), cap(a.qbuf))
	}

	simtest.StateCoverage(t, b, b, busRules(b, a, c))
	for _, n := range []*Node{a, c} {
		n := n
		simtest.StateCoverage(t, b, n, map[string]simtest.Rule{
			"name": simtest.NotState(config), "bus": simtest.NotState(wiring),
			"OnReceive":  simtest.NotState("wiring: the application's receive callback"),
			"queue.data": simtest.Via(padding, func() { f := &n.queue[len(n.queue)-1]; f.data[f.n-1] ^= 0xee }),
			"qbuf":       simtest.NotState("storage: the array queue slides along; every waiting frame is in queue"),
		})
	}
}

// TestStateCoverageIdleBus is the lint on a bus that carried traffic and
// went quiet: no frame in flight, so the capture's no-winner index is
// the one restored.
func TestStateCoverageIdleBus(t *testing.T) {
	k, b := busFixture(t)
	defer k.Shutdown()
	a, c := b.Attach("a"), b.Attach("c")
	if err := a.Send(Frame{ID: 0x10, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(Frame{ID: 0x20, Data: []byte{2}}); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(sim.MS(1)); err != nil {
		t.Fatal(err)
	}
	if b.busy || b.txWinner != nil || a.Pending()+c.Pending() != 0 {
		t.Fatalf("bus not idle after traffic: busy=%v winner=%v queued=%d", b.busy, b.txWinner, a.Pending()+c.Pending())
	}
	rules := busRules(b, a, c)
	rules["channel.txFrame.data"] = simtest.Unhashed("no frame in flight: every byte is padding past n = 0, which HashState does not fold")
	simtest.StateCoverage(t, b, b, rules)
}

const (
	config  = "configuration, constant after NewBus"
	wiring  = "kernel objects and wiring, fixed by NewBus and kept by every restore; pending notifications are scheduler state"
	padding = "inline payload: HashState folds data[:n]; the bytes past n are zero padding nothing reads, so the byte perturbed is a live one"
)

// busRules are the Bus rows of the lint, for a bus with nodes a and c.
func busRules(b *Bus, a, c *Node) map[string]simtest.Rule {
	return map[string]simtest.Rule{
		"k":       simtest.NotState(wiring),
		"BitTime": simtest.NotState(config), "MaxRetries": simtest.NotState(config),
		"nodes": simtest.NotState("attachment list, fixed after elaboration; node state is linted below"),
		"wake":  simtest.NotState(wiring), "txdone": simtest.NotState(wiring),
		"txWinner": simtest.Via("a node pointer, captured as an index", func() {
			if b.txWinner == a {
				b.txWinner = c
			} else {
				b.txWinner = a
			}
		}),
		"channel.txFrame.data": simtest.Via(padding, func() { b.txFrame.data[b.txFrame.n-1] ^= 0xee }),
		"rx":                   simtest.NotState("scratch: the delivery buffer, rewritten before every OnReceive and read only during it"),
		"cont":                 simtest.NotState("scratch: contenders refills it every arbitration round"),
		"retriesLeft":          simtest.Via("a map keyed by node, captured by index", func() { b.retriesLeft[a]-- }),
		"babbleFrame":          simtest.NotState(config),
	}
}

// TestStateCoverageBusOwners: the lint perturbs a node's retry budget
// and queue in place, which moves the digest whatever the framing. Which
// node holds a budget or a queued frame must move it too: with every
// counter at zero, a zero budget or an ID-0 empty frame on one node
// folds the same zero words as on the other but for the presence bit
// and the queue length, and two runs that differ only there would pass
// for one state.
func TestStateCoverageBusOwners(t *testing.T) {
	digest := func(set func(b *Bus, n *Node)) [2]uint64 {
		var out [2]uint64
		for i := range out {
			k, b := busFixture(t)
			nodes := []*Node{b.Attach("a"), b.Attach("c")}
			set(b, nodes[i])
			out[i] = sim.StateSignature(b)
			k.Shutdown()
		}
		return out
	}
	for name, set := range map[string]func(b *Bus, n *Node){
		"a zero retry budget": func(b *Bus, n *Node) { b.retriesLeft[n] = 0 },
		"an ID-0 empty frame": func(_ *Bus, n *Node) { n.queue = append(n.queue, frame{}) },
	} {
		if d := digest(set); d[0] == d[1] {
			t.Errorf("%s on one node or the other digests alike (%#x)", name, d[0])
		}
	}
}
