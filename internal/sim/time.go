// Package sim implements a deterministic discrete-event simulation kernel
// with SystemC-like semantics: simulated time, events, delta cycles,
// method and thread processes, and request/update signals.
//
// The kernel is the substrate for every virtual prototype in this
// repository. It reproduces the scheduling model of IEEE 1666-2011
// (evaluate phase, update phase, delta notification phase, time advance)
// because error-effect simulation depends on those semantics: an injected
// error must become visible exactly one delta cycle after the write that
// carries it, and concurrent processes must interleave deterministically
// so fault campaigns are reproducible.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in (or duration of) simulated time, measured in
// picoseconds. A uint64 picosecond clock covers about 213 days of
// simulated time, far beyond any mission-profile scenario in this
// repository.
type Time uint64

// Duration constants expressed in the kernel's picosecond base unit.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// TimeMax is the largest representable simulation time. Running the
// kernel until TimeMax effectively means "run until no events remain".
const TimeMax Time = math.MaxUint64

// NS returns n nanoseconds as a Time.
func NS(n uint64) Time { return Time(n) * Nanosecond }

// US returns n microseconds as a Time.
func US(n uint64) Time { return Time(n) * Microsecond }

// MS returns n milliseconds as a Time.
func MS(n uint64) Time { return Time(n) * Millisecond }

// Seconds reports the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time with the largest unit that divides it evenly,
// e.g. "15 ns" or "2 us" or "7 ps".
func (t Time) String() string {
	switch {
	case t == TimeMax:
		return "t-max"
	case t == 0:
		return "0 s"
	case t%Second == 0:
		return fmt.Sprintf("%d s", uint64(t/Second))
	case t%Millisecond == 0:
		return fmt.Sprintf("%d ms", uint64(t/Millisecond))
	case t%Microsecond == 0:
		return fmt.Sprintf("%d us", uint64(t/Microsecond))
	case t%Nanosecond == 0:
		return fmt.Sprintf("%d ns", uint64(t/Nanosecond))
	default:
		return fmt.Sprintf("%d ps", uint64(t))
	}
}
