package caps

import (
	"fmt"
	"slices"
	"strings"

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
	// golden is the golden run's outputs, kept by Golden before any other
	// run: a run whose outputs equal them carries this very string.
	golden string
}

func (m *model) Build(k *sim.Kernel) (*System, *fault.Registry) { return Build(k, m.cfg, m.world) }

func (m *model) Observe(s *System) analysis.Observation {
	return m.observation(m.outputs(s.Fired, s.Severities, "", ""), s.Fired, s.FiredAt, s.Detections, m.stateCorrupted(s))
}

// Golden vets the golden run: what an early-exited run's observation
// is composed from is the record of the run it joined, golden's included.
func (m *model) Golden(_ *System, ob analysis.Observation) error {
	if ob.GoalViolated {
		return fmt.Errorf("caps: golden run violates the safety goal: %s", ob.GoalDetail)
	}
	m.golden = ob.Outputs
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
	out           string // the outputs: the fired byte, then the severity stream
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
	r.out = ob.Outputs
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
// r's history, so its observation is r's: r's outputs and r's detections.
// Otherwise the detections go into the slot's own list, which the slot's
// next restore rewinds, and the spliced stream is golden's or r's outputs
// when it equals one of them (outputs).
func (m *model) Converged(s *System, r *record, n int) analysis.Observation {
	sevAt, detAt := r.sevAt[n], r.detAt[n]
	sev := r.out[1:]
	if string(s.Severities) == sev[:sevAt] && slices.Equal(s.Detections, r.det[:detAt]) {
		return m.observation(r.out, r.fired, r.firedAt, r.det, r.latent)
	}
	for _, d := range r.det[detAt:] {
		s.detect(d)
	}
	return m.observation(m.outputs(r.fired, s.Severities, sev[sevAt:], r.out), r.fired, r.firedAt, s.Detections, r.latent)
}

// outputs is the outputs of a run that fired as given and whose severity
// stream is live followed by tail: its externally visible results as one
// comparable value, the fired byte and then the stream's raw bytes (Fired
// reads them back). Only Classify compares them, and raw bytes are equal
// exactly when their renderings are. Results equal to golden's are
// golden's string, and results equal to joined — the outputs of the run a
// converged run joined — are that string, so neither is built; any other
// allocates its one string.
func (m *model) outputs(fired bool, live []byte, tail, joined string) string {
	f := byte(0)
	if fired {
		f = 1
	}
	for _, c := range [...]string{m.golden, joined} {
		if len(c) == 1+len(live)+len(tail) && c[0] == f && c[1:1+len(live)] == string(live) && c[1+len(live):] == tail {
			return c
		}
	}
	var b strings.Builder
	b.Grow(1 + len(live) + len(tail))
	b.WriteByte(f)
	b.Write(live)
	b.WriteString(tail)
	return b.String()
}

// Fired reports whether the airbag fired in the run ob was read off.
func Fired(ob analysis.Observation) bool { return ob.Outputs != "" && ob.Outputs[0] == 1 }

// observation is a run's outputs judged against the safety goals — the
// one tail a full run (Observe) and an early-exited one (Converged)
// share.
func (m *model) observation(out string, fired bool, firedAt sim.Time, det []string, latent bool) analysis.Observation {
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
