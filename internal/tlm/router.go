package tlm

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Router is an address-decoding interconnect: incoming transactions are
// forwarded to the target whose address range contains the payload
// address. It models the communication architecture left "undefined
// and open for design space exploration" in the paper's TLM discussion
// — swap the mapping without touching initiators or targets.
type Router struct {
	name   string
	ranges []mapRange
}

type mapRange struct {
	start, end uint64 // inclusive
	target     Target
	name       string
}

// NewRouter creates an empty router.
func NewRouter(name string) *Router {
	return &Router{name: name}
}

// Map binds [start, start+size) to a target. Overlapping ranges are a
// wiring bug and are rejected.
func (r *Router) Map(name string, start uint64, size uint64, t Target) error {
	if size == 0 {
		return fmt.Errorf("tlm: router %s: empty range for %s", r.name, name)
	}
	end := start + size - 1
	for _, mr := range r.ranges {
		if start <= mr.end && mr.start <= end {
			return fmt.Errorf("tlm: router %s: range %s [0x%x,0x%x] overlaps %s [0x%x,0x%x]",
				r.name, name, start, end, mr.name, mr.start, mr.end)
		}
	}
	r.ranges = append(r.ranges, mapRange{start: start, end: end, target: t, name: name})
	sort.Slice(r.ranges, func(i, j int) bool { return r.ranges[i].start < r.ranges[j].start })
	return nil
}

// MustMap is Map that panics on wiring errors (elaboration-time use).
func (r *Router) MustMap(name string, start uint64, size uint64, t Target) {
	if err := r.Map(name, start, size, t); err != nil {
		panic(err)
	}
}

// decode finds the target range for addr, or nil.
func (r *Router) decode(addr uint64) *mapRange {
	lo, hi := 0, len(r.ranges)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		mr := &r.ranges[mid]
		switch {
		case addr < mr.start:
			hi = mid - 1
		case addr > mr.end:
			lo = mid + 1
		default:
			return mr
		}
	}
	return nil
}

// BTransport implements Target by decoding and forwarding.
func (r *Router) BTransport(p *Payload, delay *sim.Time) {
	mr := r.decode(p.Address)
	if mr == nil {
		p.Response = RespAddressError
		return
	}
	mr.target.BTransport(p, delay)
}

// TransportDbg implements DebugTarget by forwarding without latency.
func (r *Router) TransportDbg(p *Payload) int {
	mr := r.decode(p.Address)
	if mr == nil {
		p.Response = RespAddressError
		return 0
	}
	if dt, ok := mr.target.(DebugTarget); ok {
		return dt.TransportDbg(p)
	}
	return 0
}
