package uvm

import "fmt"

// Scoreboard is an in-order expected-vs-observed comparator: reference
// transactions go in with Expect, DUT transactions with Observe, and
// the check phase fails on any mismatch, missing or surplus
// transaction. For safety evaluation the same scoreboard doubles as a
// failure detector: a mismatch under fault injection is an observed
// error (experiments E2-E5 classify on exactly this).
type Scoreboard[T comparable] struct {
	Comp
	expected   []T
	mismatches []string
	matched    int
	observed   int
}

// NewScoreboard creates a scoreboard component under parent.
func NewScoreboard[T comparable](parent Component, name string) *Scoreboard[T] {
	sb := &Scoreboard[T]{}
	NewComp(sb, parent, name)
	return sb
}

// Expect queues a reference transaction.
func (s *Scoreboard[T]) Expect(v T) {
	s.expected = append(s.expected, v)
}

// Observe submits a DUT transaction for in-order comparison.
func (s *Scoreboard[T]) Observe(v T) {
	s.observed++
	if len(s.expected) == 0 {
		s.mismatches = append(s.mismatches, fmt.Sprintf("surplus transaction %v", v))
		return
	}
	want := s.expected[0]
	s.expected = s.expected[1:]
	if v != want {
		s.mismatches = append(s.mismatches, fmt.Sprintf("mismatch: got %v, want %v", v, want))
		return
	}
	s.matched++
}

// Matched reports transactions that compared equal.
func (s *Scoreboard[T]) Matched() int { return s.matched }

// Observed reports total transactions submitted.
func (s *Scoreboard[T]) Observed() int { return s.observed }

// Check implements Component: it fails on mismatches or missing
// transactions.
func (s *Scoreboard[T]) Check() error {
	if len(s.mismatches) > 0 {
		return fmt.Errorf("%d mismatches, first: %s", len(s.mismatches), s.mismatches[0])
	}
	if len(s.expected) > 0 {
		return fmt.Errorf("%d expected transactions never observed", len(s.expected))
	}
	return nil
}
