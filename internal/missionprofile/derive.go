package missionprofile

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/fault"
	"repro/internal/sim"
)

// DerivationRule maps an environmental stress onto a fault model at
// matching injection sites — the step the paper calls "a very
// challenging task and currently not yet solved" (Sec. 3.2), here
// realized as an explicit, auditable rule base. The canonical example
// from the paper: "Based on this vibration load, a probability of
// errors due to wiring, such as open load or short to ground, should
// be derived."
type DerivationRule struct {
	// Stress this rule responds to.
	Stress StressKind
	// Threshold below which (at Max level) the rule stays inactive.
	Threshold float64
	// Model is the fault model to emit.
	Model fault.Model
	// Class is the persistence of the derived faults.
	Class fault.Class
	// Domain tags the derived faults.
	Domain fault.Domain
	// SitePattern selects injection sites by glob over site names
	// ('*' spans any run, '?' one character).
	SitePattern string
	// BaseFIT is the failure rate at the threshold; PerUnitFIT is
	// added per unit of stress above the threshold.
	BaseFIT, PerUnitFIT float64
	// Duration/Period parameterize transient/intermittent faults.
	Duration, Period sim.Time
}

// DefaultRules is a representative rule base connecting the classic
// automotive stresses to wiring/silicon fault models.
func DefaultRules() []DerivationRule {
	return []DerivationRule{
		{Stress: Vibration, Threshold: 2, Model: fault.Open, Class: fault.Intermittent,
			Domain: fault.AnalogHW, SitePattern: "*harness*",
			BaseFIT: 10, PerUnitFIT: 25, Duration: sim.US(50), Period: sim.MS(1)},
		{Stress: Vibration, Threshold: 5, Model: fault.ShortToGround, Class: fault.Transient,
			Domain: fault.AnalogHW, SitePattern: "*harness*",
			BaseFIT: 2, PerUnitFIT: 10, Duration: sim.US(200)},
		{Stress: Temperature, Threshold: 100, Model: fault.StuckAt1, Class: fault.Permanent,
			Domain: fault.DigitalHW, SitePattern: "*reg*",
			BaseFIT: 1, PerUnitFIT: 0.5},
		{Stress: Temperature, Threshold: 85, Model: fault.BitFlip, Class: fault.Transient,
			Domain: fault.DigitalHW, SitePattern: "*mem*",
			BaseFIT: 5, PerUnitFIT: 1, Duration: sim.US(1)},
		{Stress: EMI, Threshold: 50, Model: fault.Corruption, Class: fault.Transient,
			Domain: fault.Communication, SitePattern: "*bus*",
			BaseFIT: 3, PerUnitFIT: 2, Duration: sim.US(10)},
		{Stress: SupplyVoltage, Threshold: 14, Model: fault.ShortToSupply, Class: fault.Transient,
			Domain: fault.AnalogHW, SitePattern: "*supply*",
			BaseFIT: 1, PerUnitFIT: 5, Duration: sim.US(100)},
	}
}

// Derived is the output of the derivation: a descriptor plus the rule
// that produced it (for traceability in reports).
type Derived struct {
	Descriptor fault.Descriptor
	Rule       DerivationRule
}

// Derive applies the rule base to a profile over the given injection
// sites and returns the fault/error descriptions with failure rates.
// Derived descriptors have no Start time yet; Schedule assigns times
// across operating states.
func Derive(p *Profile, rules []DerivationRule, sites []string) ([]Derived, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var out []Derived
	for _, r := range rules {
		s, ok := p.Stress(r.Stress)
		if !ok || s.Max < r.Threshold {
			continue
		}
		fit := r.BaseFIT + (s.Max-r.Threshold)*r.PerUnitFIT
		for _, site := range sites {
			if !siteMatch(r.SitePattern, site) {
				continue
			}
			d := fault.Descriptor{
				Name:     fmt.Sprintf("%s/%s/%s", p.Component, r.Stress, site),
				Model:    r.Model,
				Class:    r.Class,
				Domain:   r.Domain,
				Target:   site,
				Rate:     fit,
				Duration: r.Duration,
				Period:   r.Period,
			}
			if d.Class == fault.Intermittent && d.Period <= d.Duration {
				d.Period = d.Duration * 10
			}
			out = append(out, Derived{Descriptor: d, Rule: r})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Descriptor.Name < out[j].Descriptor.Name })
	return out, nil
}

// Schedule assigns start times to derived descriptors by distributing
// them over the profile's operating states proportionally to state
// fraction × load scale (stressful states attract more activations),
// within a simulated window of length horizon. The rng makes
// placement reproducible per seed.
func Schedule(p *Profile, derived []Derived, horizon sim.Time, rng *rand.Rand) []fault.Scenario {
	type window struct {
		start, end sim.Time
		state      OperatingState
	}
	var windows []window
	var t sim.Time
	for _, st := range p.States {
		w := sim.Time(float64(horizon) * st.Fraction)
		windows = append(windows, window{start: t, end: t + w, state: st})
		t += w
	}
	if len(windows) == 0 {
		windows = []window{{start: 0, end: horizon, state: OperatingState{Name: "default", Fraction: 1, LoadScale: 1}}}
	}
	// Weight per window: fraction * (1 + loadScale).
	weights := make([]float64, len(windows))
	total := 0.0
	for i, w := range windows {
		weights[i] = w.state.Fraction * (1 + w.state.LoadScale)
		total += weights[i]
	}
	var scenarios []fault.Scenario
	for _, dv := range derived {
		// Pick a window by weight.
		x := rng.Float64() * total
		idx := 0
		for i, wgt := range weights {
			if x < wgt {
				idx = i
				break
			}
			x -= wgt
			idx = i
		}
		w := windows[idx]
		span := w.end - w.start
		d := dv.Descriptor
		if span > 0 {
			d.Start = w.start + sim.Time(rng.Int63n(int64(span)))
		} else {
			d.Start = w.start
		}
		d.Name = fmt.Sprintf("%s@%s", d.Name, w.state.Name)
		scenarios = append(scenarios, fault.Scenario{
			ID:     d.Name,
			Faults: []fault.Descriptor{d},
		})
	}
	return scenarios
}

// siteMatch matches a glob: '*' spans any run, '?' one character.
func siteMatch(pattern, s string) bool {
	pi, si := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '?' || pattern[pi] == s[si]):
			pi++
			si++
		case pi < len(pattern) && pattern[pi] == '*':
			star = pi
			mark = si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}
