package tlm

import (
	"fmt"

	"repro/internal/sim"
)

// Phase is the four-phase approximately-timed handshake state.
type Phase uint8

const (
	// PhaseBeginReq starts a request (initiator -> target).
	PhaseBeginReq Phase = iota
	// PhaseEndReq acknowledges the request (target -> initiator).
	PhaseEndReq
	// PhaseBeginResp starts the response (target -> initiator).
	PhaseBeginResp
	// PhaseEndResp completes the transaction (initiator -> target).
	PhaseEndResp
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseBeginReq:
		return "BEGIN_REQ"
	case PhaseEndReq:
		return "END_REQ"
	case PhaseBeginResp:
		return "BEGIN_RESP"
	case PhaseEndResp:
		return "END_RESP"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// Sync is the return status of a non-blocking transport call.
type Sync uint8

const (
	// SyncAccepted means the callee noted the phase; the caller owns
	// the transaction and must await a backward call.
	SyncAccepted Sync = iota
	// SyncUpdated means the callee advanced the phase in place.
	SyncUpdated
	// SyncCompleted means the transaction finished within the call.
	SyncCompleted
)

// NBTarget receives forward-path non-blocking transport calls.
type NBTarget interface {
	NBTransportFw(p *Payload, ph *Phase, delay *sim.Time) Sync
}

// NBInitiator receives backward-path non-blocking transport calls.
type NBInitiator interface {
	NBTransportBw(p *Payload, ph *Phase, delay *sim.Time) Sync
}

// ATTarget adapts a blocking Target to the approximately-timed
// protocol: BEGIN_REQ is accepted immediately, the wrapped target's
// annotated latency is spent as real scheduled kernel time, then
// BEGIN_RESP travels the backward path. Each transaction therefore
// costs kernel events — the scheduling overhead that makes AT slower
// than LT in the experiment E1 abstraction ladder.
type ATTarget struct {
	k     *sim.Kernel
	name  string
	inner Target
	bw    NBInitiator

	busy  bool
	queue []*Payload
}

// NewATTarget wraps inner; backward calls go to bw.
func NewATTarget(k *sim.Kernel, name string, inner Target, bw NBInitiator) *ATTarget {
	return &ATTarget{k: k, name: name, inner: inner, bw: bw}
}

// NBTransportFw implements NBTarget.
func (t *ATTarget) NBTransportFw(p *Payload, ph *Phase, delay *sim.Time) Sync {
	switch *ph {
	case PhaseBeginReq:
		t.queue = append(t.queue, p)
		if !t.busy {
			t.busy = true
			t.scheduleNext(*delay)
		}
		*ph = PhaseEndReq
		return SyncUpdated
	case PhaseEndResp:
		return SyncCompleted
	default:
		panic(fmt.Sprintf("tlm: %s: unexpected forward phase %s", t.name, *ph))
	}
}

// scheduleNext pops the queue head after `after` and completes it.
func (t *ATTarget) scheduleNext(after sim.Time) {
	ev := t.k.NewEvent(t.name + ".process")
	t.k.MethodNoInit(t.name+".worker", func() {
		p := t.queue[0]
		t.queue = t.queue[1:]
		var lat sim.Time
		t.inner.BTransport(p, &lat)
		// Response travels back after the target's internal latency.
		done := t.k.NewEvent(t.name + ".resp")
		t.k.MethodNoInit(t.name+".responder", func() {
			ph := PhaseBeginResp
			var d sim.Time
			t.bw.NBTransportBw(p, &ph, &d)
			if len(t.queue) > 0 {
				t.scheduleNext(0)
			} else {
				t.busy = false
			}
		}, done)
		done.Notify(lat + 1) // +1 ps keeps response strictly after request
	}, ev)
	ev.Notify(after + 1)
}

// ATRequester is a blocking convenience wrapper for initiators using
// the AT protocol from a thread process: Transact sends BEGIN_REQ and
// suspends until BEGIN_RESP arrives on the backward path.
type ATRequester struct {
	name   string
	target NBTarget

	respEv   *sim.Event
	inFlight map[*Payload]bool
}

// NewATRequester creates a requester; bind it to the target with Bind
// and pass it as the target's backward interface.
func NewATRequester(k *sim.Kernel, name string) *ATRequester {
	return &ATRequester{
		name:     name,
		respEv:   k.NewEvent(name + ".resp"),
		inFlight: make(map[*Payload]bool),
	}
}

// Bind connects the requester to its AT target.
func (r *ATRequester) Bind(t NBTarget) { r.target = t }

// NBTransportBw implements NBInitiator.
func (r *ATRequester) NBTransportBw(p *Payload, ph *Phase, delay *sim.Time) Sync {
	if *ph != PhaseBeginResp {
		panic(fmt.Sprintf("tlm: %s: unexpected backward phase %s", r.name, *ph))
	}
	delete(r.inFlight, p)
	r.respEv.Notify(0)
	*ph = PhaseEndResp
	return SyncCompleted
}

// Transact runs one full four-phase transaction, blocking the calling
// thread until the response arrives.
func (r *ATRequester) Transact(ctx *sim.ThreadCtx, p *Payload) {
	ph := PhaseBeginReq
	var d sim.Time
	r.inFlight[p] = true
	st := r.target.NBTransportFw(p, &ph, &d)
	if st == SyncCompleted {
		delete(r.inFlight, p)
		return
	}
	for r.inFlight[p] {
		ctx.Wait(r.respEv)
	}
	ph = PhaseEndResp
	r.target.NBTransportFw(p, &ph, &d)
}
