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
	*stressor.Host[*System, splices]
}

// NewRunner builds the runner and performs the golden run.
func NewRunner(cfg Config, world *World, horizon sim.Time) (*Runner, error) {
	h, err := stressor.NewHost[*System, splices]("caps", &model{cfg: cfg, world: world}, horizon)
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
	cfg    Config
	world  *World
	golden golden // set once, from the golden run
}

func (m *model) Build(k *sim.Kernel) (*System, *fault.Registry) { return Build(k, m.cfg, m.world) }

func (m *model) Observe(s *System) analysis.Observation {
	return m.observation(s.Fired, s.FiredAt, s.Severities, s.Detections, m.stateCorrupted(s))
}

// Golden keeps the golden run's output history and final facts: what an
// early-exited run's observation is composed from (Converged).
func (m *model) Golden(s *System, ob analysis.Observation) error {
	if ob.GoalViolated {
		return fmt.Errorf("caps: golden run violates the safety goal: %s", ob.GoalDetail)
	}
	m.golden = golden{
		sev: slices.Clone(s.Severities), det: slices.Clone(s.Detections),
		fired: s.Fired, firedAt: s.FiredAt, latent: ob.LatentState,
	}
	return nil
}

// golden is the fault-free run's full-horizon output history (severity
// stream, detections) and its final dynamic-derived facts (firing,
// latent corruption). The digest covers only dynamic state — see
// System.HashState — so this, spliced at the history lengths below, is
// what turns "the dynamics re-joined golden at t" into the
// byte-identical full-horizon observation.
type golden struct {
	sev           []byte
	det           []string
	fired, latent bool
	firedAt       sim.Time
}

// splices are the golden history lengths at each stride instant
// (i+1)*stride: where a run converging there splices the golden suffix.
type splices struct{ sev, det []int }

func (m *model) Record(g *splices, s *System) {
	g.sev = append(g.sev, len(s.Severities))
	g.det = append(g.det, len(s.Detections))
}

// Converged builds the full-horizon observation of a run whose dynamic
// state re-joined the golden trajectory at stride instant i: live
// accumulated history up to it, golden history after it. Soundness rests
// on two facts. First, equal dynamic state at that instant means the run
// evolves identically to golden from there on, so its remaining output
// history IS the golden suffix — spliced at GOLDEN's per-stride lengths,
// since the live prefix may be shorter (an omission fault drops severity
// appends without diverging the dynamics for long). Second, the golden
// run is fault-free and records zero detections, so the spliced detection
// suffix is empty in practice; the dedup guard below still mirrors
// detect()'s already-recorded check byte-for-byte should that ever
// change.
func (m *model) Converged(s *System, g *splices, i int) analysis.Observation {
	gold := &m.golden
	sev := append(append([]byte(nil), s.Severities...), gold.sev[g.sev[i]:]...)
	det := append([]string(nil), s.Detections...)
tail:
	for _, d := range gold.det[g.det[i]:] {
		for _, have := range det {
			if have == d {
				continue tail
			}
		}
		det = append(det, d)
	}
	return m.observation(gold.fired, gold.firedAt, sev, det, gold.latent)
}

// observation is a run's outputs judged against the safety goals — the
// one tail a full run (Observe) and an early-exited one (Converged)
// share.
func (m *model) observation(fired bool, firedAt sim.Time, sev []byte, det []string, latent bool) analysis.Observation {
	ob := analysis.Observation{
		Outputs: map[string]string{
			"fired": strconv.FormatBool(fired),
			"sev":   formatSeverities(sev),
		},
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

// formatSeverities renders the severity stream exactly as
// fmt.Sprint([]byte) would ("[1 2 3]") without fmt's reflection cost —
// it runs once per campaign scenario.
func formatSeverities(sev []byte) string {
	buf := make([]byte, 0, 2+4*len(sev))
	buf = append(buf, '[')
	for i, v := range sev {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendUint(buf, uint64(v), 10)
	}
	buf = append(buf, ']')
	return string(buf)
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
