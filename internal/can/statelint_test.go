package can

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// TestStateCoverageBus is the state-coverage lint on the bus and its
// nodes, caught mid-traffic: a frame in flight, frames queued behind
// it, a retry budget open and a non-empty transaction log. Every field
// is perturbed and must move the digest and survive snapshot → perturb
// → restore, or is listed with the reason it need not.
func TestStateCoverageBus(t *testing.T) {
	k, b := busFixture(t)
	defer k.Shutdown()
	a, c := b.Attach("a"), b.Attach("c")
	b.CorruptNextFrames(2)
	for i := 0; i < 3; i++ {
		if err := a.Send(Frame{ID: 0x10, Data: []byte{byte(i), 2}}); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(Frame{ID: 0x20, Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// One corrupted frame has completed (log entry, error counters, a
	// retry budget) and its retransmission is on the wire.
	if err := k.RunUntil(sim.US(150)); err != nil {
		t.Fatal(err)
	}
	if !b.busy || b.txWinner == nil || len(b.log) == 0 || len(b.retriesLeft) == 0 || len(a.queue) == 0 {
		t.Fatalf("bus not mid-traffic: busy=%v winner=%v log=%d retries=%d queue=%d",
			b.busy, b.txWinner, len(b.log), len(b.retriesLeft), len(a.queue))
	}

	const (
		config    = "configuration, constant after NewBus"
		wiring    = "kernel objects and bound methods, re-created by Rearm; pending notifications are scheduler state"
		diag      = "diagnostics nothing behavioral reads back (see Bus.HashState)"
		immutable = "payload bytes are never written after Send clones them: captures share them, so the slice is replaced, not edited"
	)
	simtest.StateCoverage(t, b, b, map[string]simtest.Rule{
		"k": simtest.NotState(wiring), "name": simtest.NotState(config),
		"BitTime": simtest.NotState(config), "MaxRetries": simtest.NotState(config),
		"nodes": simtest.NotState("attachment list, fixed after elaboration; node state is linted below"),
		"wake":  simtest.NotState(wiring), "txdone": simtest.NotState(wiring),
		"log":            simtest.Unhashed(diag),
		"log.Frame.Data": simtest.NotState(immutable),
		"txWinner": simtest.Via("a node pointer, captured as an index", func() {
			if b.txWinner == a {
				b.txWinner = c
			} else {
				b.txWinner = a
			}
		}),
		"txFrame.Data": simtest.Via(immutable, func() { b.txFrame.Data = []byte{0xee} }),
		"cont":         simtest.NotState("scratch: contenders refills it every arbitration round"),
		"wakeName":     simtest.NotState(config), "arbName": simtest.NotState(config),
		"doneName": simtest.NotState(config), "compName": simtest.NotState(config),
		"arbFn": simtest.NotState(wiring), "compFn": simtest.NotState(wiring),
		"retriesLeft":  simtest.Via("a map keyed by node, captured by index", func() { b.retriesLeft[b.txWinner]-- }),
		"babbleFrame":  simtest.NotState(config),
		"arbitrations": simtest.Unhashed(diag),
	})
	for _, n := range []*Node{a, c} {
		n := n
		simtest.StateCoverage(t, b, n, map[string]simtest.Rule{
			"name": simtest.NotState(config), "bus": simtest.NotState(wiring),
			"OnReceive":  simtest.NotState("wiring: the application's receive callback"),
			"queue.Data": simtest.Via(immutable, func() { n.queue[0].Data = []byte{0xee} }),
			"sent":       simtest.Unhashed(diag), "received": simtest.Unhashed(diag), "errorsSeen": simtest.Unhashed(diag),
		})
	}
}
