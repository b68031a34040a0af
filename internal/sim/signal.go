package sim

// Signal is a primitive channel with SystemC sc_signal semantics: a
// Write during the evaluate phase becomes visible to readers only in
// the next delta cycle (request/update). This is what makes concurrent
// process communication race-free and fault campaigns deterministic.
//
// Signal additionally supports Force/Release, the injection hook used
// by saboteur-style fault injectors: while forced, the signal reports
// the forced value regardless of writes, and writes are remembered so
// Release restores the un-faulted behaviour.
type Signal[T comparable] struct {
	k    *Kernel
	name string

	cur     T
	next    T
	hasNext bool

	forced   bool
	forceVal T

	changed *Event
}

// NewSignal creates a named signal with an initial value.
func NewSignal[T comparable](k *Kernel, name string, init T) *Signal[T] {
	return &Signal[T]{k: k, name: name, cur: init, next: init}
}

// Name reports the signal name.
func (s *Signal[T]) Name() string { return s.name }

// Read returns the current (update-phase committed) value, or the
// forced value while a fault injector holds the signal.
func (s *Signal[T]) Read() T {
	if s.forced {
		return s.forceVal
	}
	return s.cur
}

// Write schedules v to become the signal value in the update phase of
// the current delta cycle. The last write in an evaluate phase wins.
func (s *Signal[T]) Write(v T) {
	if !s.hasNext {
		s.hasNext = true
		s.k.DeferUpdate(s)
	}
	s.next = v
}

// update commits the pending write (update phase callback).
func (s *Signal[T]) update() {
	if !s.hasNext {
		return
	}
	s.hasNext = false
	if s.next == s.cur {
		return
	}
	s.cur = s.next
	if s.changed != nil && !s.forced {
		s.changed.notifyDelta()
	}
}

// Changed returns the value-changed event, creating it on first use.
// The event fires one delta cycle after a write that alters the value.
func (s *Signal[T]) Changed() *Event {
	if s.changed == nil {
		s.changed = s.k.NewEvent(s.name + ".changed")
	}
	return s.changed
}

// Force overrides the signal's observable value until Release. The
// value-changed event fires so sensitive processes react to the fault.
func (s *Signal[T]) Force(v T) {
	already := s.forced && s.forceVal == v
	s.forced = true
	s.forceVal = v
	if !already && s.changed != nil {
		s.changed.notifyDelta()
	}
}

// Release removes a Force. If the driven value differs from the forced
// one, the value-changed event fires.
func (s *Signal[T]) Release() {
	if !s.forced {
		return
	}
	was := s.forceVal
	s.forced = false
	if s.cur != was && s.changed != nil {
		s.changed.notifyDelta()
	}
}
