package caps

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/can"
	"repro/internal/fault"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/tlm"
)

// Config selects the safety mechanisms of the prototype — the knob
// experiment E8 turns to show their effect on the FMEDA metrics.
type Config struct {
	// Redundant uses two accelerometers instead of one.
	Redundant bool
	// Plausibility cross-checks the redundant sensors and inhibits on
	// disagreement.
	Plausibility bool
	// CalibCRC protects the calibration memory with a CRC-8 and falls
	// back to defaults on mismatch.
	CalibCRC bool
	// ThresholdRedundant stores the firing threshold twice (inverted)
	// and inhibits on mismatch.
	ThresholdRedundant bool
	// FrameWatchdog inhibits when sensor frames stop arriving.
	FrameWatchdog bool
	// Debounce is the number of consecutive over-threshold frames
	// required to fire (minimum 1).
	Debounce int

	// FireThreshold is the severity needed to deploy.
	FireThreshold byte
	// PlausTolerance is the allowed sensor disagreement in g.
	PlausTolerance float64
	// SamplePeriod is the fusion cycle time.
	SamplePeriod sim.Time
	// FrameTimeout is the airbag-side reception watchdog window.
	FrameTimeout sim.Time
	// DeployDeadline is the allowed crash-to-deployment latency (G2).
	DeployDeadline sim.Time
}

// Protected is the full-mechanism configuration.
func Protected() Config {
	return Config{
		Redundant: true, Plausibility: true, CalibCRC: true,
		ThresholdRedundant: true, FrameWatchdog: true, Debounce: 2,
		FireThreshold: 60, PlausTolerance: 5,
		SamplePeriod: sim.MS(1), FrameTimeout: sim.MS(5), DeployDeadline: sim.MS(30),
	}
}

// Unprotected disables every optional mechanism (single sensor, no
// checks, single-frame trigger).
func Unprotected() Config {
	c := Protected()
	c.Redundant = false
	c.Plausibility = false
	c.CalibCRC = false
	c.ThresholdRedundant = false
	c.FrameWatchdog = false
	c.Debounce = 1
	return c
}

// frameID is the CAN identifier of severity frames.
const frameID = 0x120

// calibScaleAddr is where the fusion calibration word (gain ×1000)
// lives in the calibration memory; calibCRCAddr holds its CRC-8.
const (
	calibScaleAddr uint64 = 0
	calibCRCAddr   uint64 = 4
)

// System is the elaborated CAPS virtual prototype.
type System struct {
	cfg Config
	k   *sim.Kernel

	// cycleEv drives the fusion method process: it re-notifies itself
	// every SamplePeriod. Modelled as an SC_METHOD rather than an
	// SC_THREAD because the fusion cycle is the prototype's hottest
	// process — a method activation is a plain call, a thread wake costs
	// two goroutine switches. wdEv drives the frame watchdog the same
	// way; both processes being methods (no goroutine stack) is what
	// keeps the elaborated kernel snapshottable for checkpointed
	// campaigns.
	cycleEv *sim.Event
	wdEv    *sim.Event

	sensors []*Sensor
	// sensorSites names each sensor's hop in the propagation trace
	// ("caps.accel0"), built once: fusionCycle records one per disturbed
	// sensor per cycle.
	sensorSites []string

	calib    *tlm.Memory
	bus      *can.Bus
	fusionTx *can.Node
	airbagRx *can.Node
	babbler  *can.Node

	airbag

	// results
	Detections []string
	Severities []byte // reported severity stream (observable output)
	// Trace records error propagation through the prototype: every
	// place a disturbed value passes adds a hop ("track the error
	// propagation", Sec. 1 of the paper).
	Trace analysis.Trace
}

// airbag is the airbag ECU's scalar run state: its latches, and whether
// and when it deployed.
type airbag struct {
	threshold     byte
	thresholdInv  byte // redundant inverted copy
	debounceCount int
	inhibited     bool
	lastFrameAt   sim.Time
	gotFrame      bool

	// results
	Fired   bool
	FiredAt sim.Time
}

// Build wires the prototype onto the kernel and returns it with its
// injection-site registry populated.
func Build(k *sim.Kernel, cfg Config, world *World) (*System, *fault.Registry) {
	if cfg.Debounce < 1 {
		cfg.Debounce = 1
	}
	s := &System{cfg: cfg, k: k, airbag: airbag{threshold: cfg.FireThreshold, thresholdInv: ^cfg.FireThreshold}}

	s.sensors = append(s.sensors, NewSensor("accel0", world))
	if cfg.Redundant {
		s.sensors = append(s.sensors, NewSensor("accel1", world))
	}
	for _, sen := range s.sensors {
		s.sensorSites = append(s.sensorSites, "caps."+sen.Name)
	}

	// Calibration memory: gain x1000 (= 50 for 0.05 V/g) plus CRC-8.
	s.calib = tlm.NewMemory("fusion.calib", 0, 64)
	s.writeCalib(50)

	s.bus = can.NewBus(k, "caps.can")
	s.fusionTx = s.bus.Attach("fusion")
	s.airbagRx = s.bus.Attach("airbag")
	s.babbler = s.bus.Attach("babbler")
	s.airbagRx.OnReceive = s.onFrame

	s.cycleEv = k.NewEvent("caps.fusion.cycle")
	k.MethodNoInit("caps.fusion", s.fusionCycle, s.cycleEv)
	s.cycleEv.Notify(cfg.SamplePeriod)
	if cfg.FrameWatchdog {
		s.wdEv = k.NewEvent("caps.framewd.timer")
		k.MethodNoInit("caps.framewd", s.frameWatchdog, s.wdEv)
		s.wdEv.Notify(cfg.FrameTimeout)
	}

	reg := fault.NewRegistry()
	for i, sensor := range s.sensors {
		reg.MustRegister(fault.AnalogInjector(
			fmt.Sprintf("caps.accel%d.harness", i), sensor, 0, sensor.Rail))
	}
	reg.MustRegister(fault.MemoryInjector("caps.fusion.calib", s.calib))
	reg.MustRegister(&fault.FuncInjector{
		SiteName: "caps.can.bus",
		Models:   []fault.Model{fault.Corruption, fault.Omission, fault.Babbling},
		InjectFn: func(d fault.Descriptor) error {
			switch d.Model {
			case fault.Corruption:
				s.bus.CorruptNextFrames(3)
			case fault.Omission:
				s.bus.DropNextFrames(3)
			case fault.Babbling:
				s.babbler.Babbling = true
			}
			return nil
		},
		RevertFn: func(d fault.Descriptor) error {
			if d.Model == fault.Babbling {
				s.babbler.Babbling = false
			}
			return nil
		},
	})
	reg.MustRegister(&fault.FuncInjector{
		SiteName: "caps.airbag.threshold",
		Models:   []fault.Model{fault.BitFlip, fault.StuckAt0, fault.StuckAt1},
		InjectFn: func(d fault.Descriptor) error {
			switch d.Model {
			case fault.BitFlip:
				s.threshold ^= 1 << (d.Bit % 8)
			case fault.StuckAt0:
				s.threshold = 0
			case fault.StuckAt1:
				s.threshold = 0xff
			}
			return nil
		},
	})
	return s, reg
}

// writeCalib stores the gain and its CRC.
func (s *System) writeCalib(scale uint32) {
	s.calib.Poke(calibScaleAddr, []byte{byte(scale), byte(scale >> 8), byte(scale >> 16), byte(scale >> 24)})
	s.calib.Poke(calibCRCAddr, []byte{rtl.CRC8([]byte{byte(scale), byte(scale >> 8), byte(scale >> 16), byte(scale >> 24)})})
}

// readCalib loads the gain, applying the CRC mechanism when enabled.
func (s *System) readCalib() (scale float64) {
	// Stack-allocated payloads: this runs every fusion cycle and must
	// stay off the heap (tlm.NewRead would allocate payload + buffer).
	var d sim.Time
	var raw [4]byte
	p := tlm.Payload{Command: tlm.CmdRead, Address: calibScaleAddr, Data: raw[:]}
	s.calib.BTransport(&p, &d)
	val := uint32(raw[0]) | uint32(raw[1])<<8 | uint32(raw[2])<<16 | uint32(raw[3])<<24
	if s.cfg.CalibCRC {
		var crc [1]byte
		q := tlm.Payload{Command: tlm.CmdRead, Address: calibCRCAddr, Data: crc[:]}
		s.calib.BTransport(&q, &d)
		if rtl.CRC8(raw[:]) != crc[0] {
			s.detect("calib-crc")
			return 0.05 // safe default gain
		}
	}
	return float64(val) / 1000
}

// detect records a safety-mechanism activation (deduplicated).
func (s *System) detect(which string) {
	for _, d := range s.Detections {
		if d == which {
			return
		}
	}
	s.Detections = append(s.Detections, which)
}

// fusionCycle samples sensors once per cycle, plausibility-checks,
// computes severity, sends it on the bus and re-arms itself for the
// next SamplePeriod.
func (s *System) fusionCycle() {
	now := s.k.Now()
	scale := s.readCalib()
	for i, sen := range s.sensors {
		if sen.Faulted() {
			s.Trace.Record(now, s.sensorSites[i], "disturbed sample")
		}
	}
	g0 := s.sensors[0].Sample(now) / scale
	g := g0
	status := byte(0)
	if s.cfg.Redundant {
		g1 := s.sensors[1].Sample(now) / scale
		if s.cfg.Plausibility && math.Abs(g0-g1) > s.cfg.PlausTolerance {
			s.detect("plausibility")
			s.Trace.Record(now, "caps.fusion", "plausibility check stopped disagreeing sensors")
			status = 1 // invalid
		}
		g = (g0 + g1) / 2
	}
	sev := g * 0.77 // severity scaling: 80 g crash ~ 62 > threshold 60
	if sev < 0 {
		sev = 0
	}
	if sev > 255 {
		sev = 255
	}
	// Send copies the payload, so the literal stays on this stack frame.
	_ = s.fusionTx.Send(can.Frame{ID: frameID, Data: []byte{byte(sev), status}})
	s.cycleEv.Notify(s.cfg.SamplePeriod)
}

// onFrame is the airbag ECU's reception handler.
func (s *System) onFrame(f can.Frame, at sim.Time) {
	if f.ID != frameID || len(f.Data) < 2 {
		return
	}
	s.gotFrame = true
	s.lastFrameAt = at
	sev, status := f.Data[0], f.Data[1]
	s.Severities = append(s.Severities, sev)
	if status != 0 {
		s.inhibited = true
		return
	}
	if s.cfg.ThresholdRedundant && s.threshold != ^s.thresholdInv {
		s.detect("threshold-redundancy")
		s.inhibited = true
		return
	}
	if sev >= s.threshold {
		s.debounceCount++
		s.Trace.Record(at, "caps.airbag", fmt.Sprintf("over-threshold frame (sev %d >= %d)", sev, s.threshold))
	} else {
		s.debounceCount = 0
	}
	if s.debounceCount >= s.cfg.Debounce && !s.inhibited && !s.Fired {
		s.Fired = true
		s.FiredAt = at
		s.Trace.Record(at, "caps.airbag", "deployment")
	}
}

// frameWatchdog inhibits deployment when the severity stream stalls.
// It is a self-renotifying method process waking every FrameTimeout —
// the same instants the old thread form woke at, with the same
// process-id ordering against the bus delivery at a shared instant.
func (s *System) frameWatchdog() {
	now := s.k.Now()
	if now >= s.cfg.FrameTimeout {
		if !s.gotFrame || now-s.lastFrameAt > s.cfg.FrameTimeout {
			s.detect("frame-timeout")
			s.inhibited = true
		}
	}
	s.wdEv.Notify(s.cfg.FrameTimeout)
}

// systemState is the opaque deep copy of the prototype's mutable state
// returned by SnapshotState: airbag-side latches, observable outputs,
// the propagation trace, the calibration memory, the CAN bus and the
// sensor disturbances. The kernel checkpoint carries the scheduler
// side (fusion/watchdog timers, in-flight bus notifications).
type systemState struct {
	airbag
	detections []string
	severities []byte
	trace      analysis.Trace
	calib      any
	bus        any
	sensors    []sensorState
}

// SnapshotState implements sim.Snapshottable, reusing prev's buffers
// so checkpoint-tree forking stays allocation-free in steady state.
func (s *System) SnapshotState(prev any) any {
	st, _ := prev.(*systemState)
	if st == nil {
		st = &systemState{}
	}
	st.airbag = s.airbag
	st.detections = append(st.detections[:0], s.Detections...)
	st.severities = append(st.severities[:0], s.Severities...)
	st.trace.CopyFrom(&s.Trace)
	st.calib = s.calib.SnapshotState(st.calib)
	st.bus = s.bus.SnapshotState(st.bus)
	if len(st.sensors) != len(s.sensors) {
		st.sensors = make([]sensorState, len(s.sensors))
	}
	for i, sen := range s.sensors {
		st.sensors[i] = sen.sensorState
	}
	return st
}

// HashState implements sim.Hashable, covering exactly the mutable
// state that drives FUTURE evolution: the airbag latches
// (Fired/FiredAt, inhibited, debounce), the threshold registers, the
// calibration memory, the behavioral bus state and the installed
// sensor disturbances. Two runs with equal dynamic state at time t
// evolve identically from t on.
//
// Deliberately excluded, in two classes:
//
//   - Accumulated observation history (Detections, Severities): an
//     append-only record of the past that nothing feeds back into the
//     dynamics. A converged run's final history is its live prefix
//     plus the suffix of the run it joined — model.Converged splices
//     it at early-exit, through detect()'s dedup — so excluding it
//     here is what lets detected/SDC runs early-exit at all. (detect
//     does read Detections, but only to dedup appends; model.HistoryKey
//     digests the set, and a run joins only a trajectory whose set was
//     its own or empty, as golden's always is.)
//   - Pure diagnostics (the propagation Trace): a transient fault
//     that leaves only a trace residue has, by definition, no
//     remaining effect.
func (s *System) HashState(h *sim.StateHash) {
	h.Byte(s.threshold)
	h.Byte(s.thresholdInv)
	h.Int(s.debounceCount)
	h.Bool(s.inhibited)
	h.Time(s.lastFrameAt)
	h.Bool(s.gotFrame)
	h.Bool(s.Fired)
	h.Time(s.FiredAt)
	s.calib.HashState(h)
	s.bus.HashState(h)
	for _, sen := range s.sensors {
		h.F64(sen.offset)
		// override uses NaN as its not-installed sentinel; fold a
		// presence bit so NaN payload bits never enter the digest.
		if math.IsNaN(sen.override) {
			h.Bool(false)
		} else {
			h.Bool(true)
			h.F64(sen.override)
		}
	}
}

// RestoreState implements sim.Snapshottable. Detections is rewound in
// its own buffer: an observation that hands it out by reference is
// classified before the slot's next restore, and one that outlives its
// run (the host's golden observation) owns a copy.
func (s *System) RestoreState(state any) {
	st := state.(*systemState)
	s.airbag = st.airbag
	s.Detections = append(s.Detections[:0], st.detections...)
	s.Severities = append(s.Severities[:0], st.severities...)
	s.Trace.CopyFrom(&st.trace)
	s.calib.RestoreState(st.calib)
	s.bus.RestoreState(st.bus)
	for i, sen := range s.sensors {
		sen.sensorState = st.sensors[i]
	}
}
