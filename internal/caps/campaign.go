package caps

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stressor"
	"repro/internal/tlm"
)

// Runner executes fault-injection campaigns on the CAPS prototype: one
// golden run is cached, then each scenario runs to the horizon and its
// outcome is classified against the golden observation. The slot pool,
// the rebuild path behind ReuseOff, the checkpoint tree, fork windows and
// early exit are stressor.Host's; the runner supplies the model below.
type Runner struct {
	*stressor.Host[*System, record]
}

// NewRunner builds the runner and performs the golden run.
func NewRunner(cfg Config, world *World, horizon sim.Time) (*Runner, error) {
	h, err := stressor.NewHost[*System, record]("caps", &model{cfg: cfg, world: world}, horizon)
	if err != nil {
		return nil, err
	}
	return &Runner{Host: h}, nil
}

// Universe enumerates the exhaustive single-fault space of the
// prototype at the given activation time — the E8 fault list.
func (r *Runner) Universe(start sim.Time) []fault.Descriptor {
	models := []fault.Model{
		fault.StuckAt0, fault.StuckAt1, fault.BitFlip, fault.Open,
		fault.ShortToGround, fault.ShortToSupply, fault.ValueOffset,
		fault.Corruption, fault.Omission, fault.Babbling,
	}
	u := r.Registry().Universe(models, fault.Permanent, start, 0, 0)
	for i := range u {
		// Give analog offsets a meaningful drift and memory faults a
		// target cell.
		switch u[i].Model {
		case fault.ValueOffset:
			u[i].Param = 0.5 // +10 g equivalent
		case fault.BitFlip, fault.StuckAt0, fault.StuckAt1:
			u[i].Address = calibScaleAddr
			u[i].Bit = 5
		}
	}
	return u
}

// RunScenarioTraced is RunScenario plus the error-propagation trace
// recorded by the prototype (fault → sensor → fusion → airbag hops).
func (r *Runner) RunScenarioTraced(sc fault.Scenario) (fault.Outcome, *analysis.Trace) {
	tr := &analysis.Trace{}
	// Copy: the slot's trace buffer is rewound for its next run.
	out := r.RunScenarioWith(sc, func(s *System) { tr.CopyFrom(&s.Trace) })
	return out, tr
}

// model is the CAPS prototype as stressor.Host runs it.
type model struct {
	cfg   Config
	world *World
}

func (m *model) Build(k *sim.Kernel) (*System, *fault.Registry) { return Build(k, m.cfg, m.world) }

func (m *model) Observe(s *System) analysis.Observation {
	return m.observation(outputs(s.Fired, string(s.Severities)), s.Fired, s.FiredAt, s.Detections, m.stateCorrupted(s))
}

// Golden vets the golden run: what an early-exited run's observation
// is composed from is the record of the run it joined, golden's included.
func (m *model) Golden(_ *System, ob analysis.Observation) error {
	if ob.GoalViolated {
		return fmt.Errorf("caps: golden run violates the safety goal: %s", ob.GoalDetail)
	}
	return nil
}

// record is a finished run's output history as a run joining its
// trajectory splices it: the history lengths at each stride mark, the
// full-horizon history — the outputs Observe read off it, the severity
// stream among them, and the detections — and the final dynamic-derived
// facts (firing, latent corruption). The digest covers only dynamic state — see
// System.HashState — so the history, spliced at the marks, is what turns
// "the dynamics joined that run at t" into the byte-identical full-horizon
// observation.
type record struct {
	detAt, sevAt  []int
	out           map[string]string
	sev           string // out["sev"]
	det           []string
	fired, latent bool
	firedAt       sim.Time
}

func (m *model) Record(r *record, s *System, n int, ob *analysis.Observation) {
	if ob == nil {
		r.sevAt = append(r.sevAt[:n], len(s.Severities))
		r.detAt = append(r.detAt[:n], len(s.Detections))
		return
	}
	r.out, r.sev = ob.Outputs, ob.Outputs["sev"]
	r.det = append(r.det[:0], s.Detections...)
	r.fired, r.firedAt, r.latent = s.Fired, s.FiredAt, ob.LatentState
}

// HistoryKey digests the set of detections recorded so far: detect()
// dedups against it, so two runs with equal dynamic state but different
// sets append different detections from then on. The set, not the list:
// what detect appends depends on membership alone. 0 for no detections —
// golden's, which every run may join, since an empty set makes a dedup
// refuse nothing.
func (m *model) HistoryKey(s *System) uint64 {
	var sum uint64
	for _, d := range s.Detections {
		h := sim.NewStateHash()
		h.Str(d)
		sum += h.Sum()
	}
	if len(s.Detections) > 0 {
		sum |= 1
	}
	return sum
}

// Converged builds the full-horizon observation of a run whose dynamic
// state joined r's trajectory at mark n: live accumulated history up to
// it, r's history after it. Soundness rests on two facts. First, equal
// dynamic state at that instant means the run evolves as r's did from
// there on, so its remaining output history IS r's suffix — spliced at
// r's own marks, since the live prefix may be shorter (an omission fault
// drops severity appends without diverging the dynamics for long).
// Second, the run joins only where r's detection set was its own or empty
// (HistoryKey), so the detections detect appended to r from there on are
// exactly those it appends to the run, less those already recorded, which
// detect drops. A run whose live history is r's up to the mark ends with
// r's history, so its observation is r's: r's outputs map, shared and
// never written, and r's detections. Otherwise the detections go into the
// slot's own list, which RestoreState rebuilds afresh before the next run.
func (m *model) Converged(s *System, r *record, n int) analysis.Observation {
	sevAt, detAt := r.sevAt[n], r.detAt[n]
	if string(s.Severities) == r.sev[:sevAt] && slices.Equal(s.Detections, r.det[:detAt]) {
		return m.observation(r.out, r.fired, r.firedAt, r.det, r.latent)
	}
	for _, d := range r.det[detAt:] {
		s.detect(d)
	}
	return m.observation(outputs(r.fired, string(s.Severities)+r.sev[sevAt:]), r.fired, r.firedAt, s.Detections, r.latent)
}

// outputs is a run's externally visible results: whether the airbag
// fired and the severity stream, its raw bytes. Only Classify reads them,
// and raw bytes are equal exactly when their renderings are.
func outputs(fired bool, sev string) map[string]string {
	return map[string]string{"fired": strconv.FormatBool(fired), "sev": sev}
}

// observation is a run's outputs judged against the safety goals — the
// one tail a full run (Observe) and an early-exited one (Converged)
// share.
func (m *model) observation(out map[string]string, fired bool, firedAt sim.Time, det []string, latent bool) analysis.Observation {
	ob := analysis.Observation{
		Outputs:     out,
		Detected:    len(det) > 0,
		DetectedBy:  det,
		LatentState: latent,
	}
	if m.world.Crash {
		deadline := m.world.CrashStart + m.cfg.DeployDeadline
		switch {
		case !fired:
			ob.GoalViolated = true
			ob.GoalDetail = "no deployment in crash (G2)"
		case firedAt > deadline:
			ob.DeadlineMissed = true
		}
	} else if fired {
		ob.GoalViolated = true
		ob.GoalDetail = "inadvertent deployment in normal operation (G1)"
	}
	return ob
}

// stateCorrupted compares persistent state against the design values.
func (m *model) stateCorrupted(s *System) bool {
	if s.threshold != s.cfg.FireThreshold {
		return true
	}
	var d sim.Time
	var raw [4]byte
	p := tlm.Payload{Command: tlm.CmdRead, Address: calibScaleAddr, Data: raw[:]}
	s.calib.BTransport(&p, &d)
	val := uint32(raw[0]) | uint32(raw[1])<<8 | uint32(raw[2])<<16 | uint32(raw[3])<<24
	if val != 50 {
		return true
	}
	for _, sen := range s.sensors {
		if sen.Faulted() {
			return true
		}
	}
	return false
}
