// Package caps implements the paper's motivating case study (Fig. 1):
// a Combined Active and Passive Safety system as a virtual prototype —
// environment (crash/no-crash acceleration profiles), redundant
// acceleration sensors with analog fault hooks, a sensor-fusion ECU
// with CRC-protected calibration and plausibility checking, a CAN
// link, and an airbag control ECU with debounce, redundant-threshold
// checking and a frame watchdog.
//
// The system's safety goal G1 is the paper's own sentence: "it must
// be absolutely guaranteed that the failure of any system component
// does not trigger the airbag in normal operation". G2 is the dual:
// in a real crash the airbag must deploy within its deadline.
// Experiment E8 runs the exhaustive single-fault campaign over this
// prototype with mechanisms enabled and disabled.
package caps

import (
	"math"

	"repro/internal/sim"
)

// World is the deterministic environment model: the true acceleration
// at the sensor cluster over time. Determinism matters — golden and
// faulty runs must see identical physics.
type World struct {
	// Crash schedules a crash pulse.
	Crash bool
	// CrashStart is when the pulse begins.
	CrashStart sim.Time
	// PeakG is the pulse peak amplitude.
	PeakG float64
}

// NormalDriving is a calm world: sub-2g road noise.
func NormalDriving() *World {
	return &World{}
}

// CrashAt schedules an 80 g frontal-crash pulse.
func CrashAt(start sim.Time) *World {
	return &World{Crash: true, CrashStart: start, PeakG: 80}
}

// Accel reports the true acceleration (g) at time t: a small
// deterministic road-noise waveform, plus the crash pulse when
// scheduled (5 ms linear onset, 10 ms plateau, 10 ms linear decay).
func (w *World) Accel(t sim.Time) float64 {
	sec := t.Seconds()
	base := 0.8 + 0.4*math.Sin(2*math.Pi*7*sec) + 0.2*math.Sin(2*math.Pi*23*sec)
	if !w.Crash || t < w.CrashStart {
		return base
	}
	dt := (t - w.CrashStart).Seconds()
	const onset, plateau, decay = 0.005, 0.010, 0.010
	switch {
	case dt < onset:
		return base + w.PeakG*dt/onset
	case dt < onset+plateau:
		return base + w.PeakG
	case dt < onset+plateau+decay:
		return base + w.PeakG*(1-(dt-onset-plateau)/decay)
	default:
		return base
	}
}

// Sensor is an analog accelerometer with a wiring-harness fault hook:
// it converts true acceleration to a voltage (Scale V/g, clipped to
// the rails) and applies the installed disturbance. It implements
// fault.AnalogValue, so fault.AnalogInjector drives it directly.
type Sensor struct {
	Name  string
	World *World
	// Scale is the conversion gain in volts per g.
	Scale float64
	// Rail is the supply voltage (clipping level).
	Rail float64

	sensorState
}

// sensorState is the sensor's installed disturbance.
type sensorState struct {
	offset   float64
	override float64 // NaN = none; +Inf = open line (reads as 0 V)
}

// NewSensor creates a 0.05 V/g sensor on a 5 V rail.
func NewSensor(name string, w *World) *Sensor {
	return &Sensor{Name: name, World: w, Scale: 0.05, Rail: 5.0, sensorState: sensorState{override: math.NaN()}}
}

// SetDisturbance implements fault.AnalogValue.
func (s *Sensor) SetDisturbance(offset, override float64) {
	s.sensorState = sensorState{offset, override}
}

// Faulted reports whether a disturbance is installed.
func (s *Sensor) Faulted() bool {
	return s.offset != 0 || !math.IsNaN(s.override)
}

// Sample reads the sensor output voltage at time t.
func (s *Sensor) Sample(t sim.Time) float64 {
	if !math.IsNaN(s.override) {
		if math.IsInf(s.override, 1) {
			return 0 // open line with pull-down
		}
		return s.override
	}
	v := s.World.Accel(t)*s.Scale + s.offset
	return math.Max(0, math.Min(s.Rail, v))
}
