package analysis

// Hops reports the propagation path in time order.
func (t *Trace) Hops() []Hop { return t.hops }

// Len reports the number of hops.
func (t *Trace) Len() int { return len(t.hops) }
