// Package missionprofile models Mission Profiles (Sec. 3.2 of the
// paper, after ZVEI's Robustness Validation handbook): the
// application-specific context of a component expressed as
// environmental stresses, functional loads and operating states, plus
// the two operations the paper's Fig. 2 flow needs — refinement down
// the supply chain (OEM → Tier-1 → semiconductor) and derivation of
// formal fault/error descriptions that parameterize a stressor.
package missionprofile

import (
	"fmt"
	"math"
)

// StressKind enumerates environmental stress categories.
type StressKind uint8

const (
	// Temperature in °C (ambient at the mounting point).
	Temperature StressKind = iota
	// Vibration in g RMS (mounting-point acceleration).
	Vibration
	// Humidity in %RH.
	Humidity
	// EMI in V/m field strength.
	EMI
	// SupplyVoltage in V (including transients).
	SupplyVoltage
	// ChemicalExposure as a unitless severity index.
	ChemicalExposure
)

// String names the stress kind.
func (k StressKind) String() string {
	switch k {
	case Temperature:
		return "temperature"
	case Vibration:
		return "vibration"
	case Humidity:
		return "humidity"
	case EMI:
		return "emi"
	case SupplyVoltage:
		return "supply-voltage"
	case ChemicalExposure:
		return "chemical"
	default:
		return fmt.Sprintf("StressKind(%d)", uint8(k))
	}
}

// Unit reports the customary unit for the stress kind.
func (k StressKind) Unit() string {
	switch k {
	case Temperature:
		return "degC"
	case Vibration:
		return "g"
	case Humidity:
		return "%RH"
	case EMI:
		return "V/m"
	case SupplyVoltage:
		return "V"
	default:
		return ""
	}
}

// EnvironmentalStress is one stress the component sees over its
// mission.
type EnvironmentalStress struct {
	Kind StressKind
	// Min and Max bound the stress level over the mission.
	Min, Max float64
	// DutyCycle is the fraction of mission time spent near Max.
	DutyCycle float64
}

// Validate checks level ordering and duty cycle range.
func (s EnvironmentalStress) Validate() error {
	if s.Max < s.Min {
		return fmt.Errorf("missionprofile: %s stress max %g < min %g", s.Kind, s.Max, s.Min)
	}
	if s.DutyCycle < 0 || s.DutyCycle > 1 {
		return fmt.Errorf("missionprofile: %s stress duty cycle %g outside [0,1]", s.Kind, s.DutyCycle)
	}
	return nil
}

// OperatingState is one named system state with its share of mission
// time. A special state — "a possible malfunction or a special use
// case, for instance the high load for the servo motor when steering
// against a curbstone" — is one with a high LoadScale.
type OperatingState struct {
	Name string
	// Fraction of total mission time spent in this state.
	Fraction float64
	// LoadScale is the state's load relative to normal operation;
	// Schedule weights the state's injection instants by it.
	LoadScale float64
}

// Level is a supply-chain level in the Fig. 2 refinement flow.
type Level uint8

const (
	// OEM is the vehicle manufacturer's system view.
	OEM Level = iota
	// Tier1 is the module/ECU supplier view.
	Tier1
	// Semiconductor is the component manufacturer view.
	Semiconductor
)

// String names the level.
func (l Level) String() string {
	switch l {
	case OEM:
		return "OEM"
	case Tier1:
		return "Tier-1"
	case Semiconductor:
		return "semiconductor"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// Profile is a formalized Mission Profile for one component.
type Profile struct {
	// Component names what the profile applies to.
	Component string
	// Level is the supply-chain level the profile is expressed at.
	Level Level
	// MissionHours is the total service life.
	MissionHours float64
	Stresses     []EnvironmentalStress
	States       []OperatingState
}

// Validate formalizes the profile: stress ranges must be sane and
// state fractions must cover the mission (sum to 1 within tolerance).
func (p *Profile) Validate() error {
	if p.Component == "" {
		return fmt.Errorf("missionprofile: profile without component")
	}
	if p.MissionHours <= 0 {
		return fmt.Errorf("missionprofile: %s: non-positive mission hours", p.Component)
	}
	for _, s := range p.Stresses {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	sum := 0.0
	for _, st := range p.States {
		if st.Fraction < 0 {
			return fmt.Errorf("missionprofile: %s: state %s negative fraction", p.Component, st.Name)
		}
		sum += st.Fraction
	}
	if len(p.States) > 0 && math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("missionprofile: %s: state fractions sum to %g, want 1", p.Component, sum)
	}
	return nil
}

// Stress returns the stress entry of the given kind, if present.
func (p *Profile) Stress(kind StressKind) (EnvironmentalStress, bool) {
	for _, s := range p.Stresses {
		if s.Kind == kind {
			return s, true
		}
	}
	return EnvironmentalStress{}, false
}

// TransferRule scales one stress kind when refining a profile to a
// sub-component: the mounting point changes what the part experiences
// (e.g. vibration amplified on the engine block, attenuated in the
// cabin).
type TransferRule struct {
	Kind   StressKind
	Factor float64
	Offset float64
}

// Refine derives a sub-component profile one supply-chain level down,
// applying stress transfer rules for the sub-component's mounting
// point. States are inherited unchanged unless the caller edits them
// afterwards.
func (p *Profile) Refine(component string, rules []TransferRule) (*Profile, error) {
	if p.Level == Semiconductor {
		return nil, fmt.Errorf("missionprofile: cannot refine below semiconductor level")
	}
	child := &Profile{
		Component:    component,
		Level:        p.Level + 1,
		MissionHours: p.MissionHours,
		States:       append([]OperatingState(nil), p.States...),
	}
	for _, s := range p.Stresses {
		rs := s
		for _, r := range rules {
			if r.Kind == s.Kind {
				rs.Min = s.Min*r.Factor + r.Offset
				rs.Max = s.Max*r.Factor + r.Offset
			}
		}
		child.Stresses = append(child.Stresses, rs)
	}
	if err := child.Validate(); err != nil {
		return nil, err
	}
	return child, nil
}

// VehicleUnderhood is a representative OEM-level mission profile for
// an engine-compartment ECU (values in the range of the ZVEI
// handbook's examples; synthetic, see DESIGN.md substitutions).
func VehicleUnderhood(component string) *Profile {
	return &Profile{
		Component:    component,
		Level:        OEM,
		MissionHours: 8000, // 15 years, ~1.5 h/day
		Stresses: []EnvironmentalStress{
			{Kind: Temperature, Min: -40, Max: 125, DutyCycle: 0.2},
			{Kind: Vibration, Min: 0, Max: 10, DutyCycle: 0.3},
			{Kind: Humidity, Min: 5, Max: 95, DutyCycle: 0.15},
			{Kind: EMI, Min: 0, Max: 100, DutyCycle: 0.05},
			{Kind: SupplyVoltage, Min: 6, Max: 16, DutyCycle: 0.02},
		},
		States: []OperatingState{
			{Name: "off", Fraction: 0.55, LoadScale: 0},
			{Name: "normal-drive", Fraction: 0.40, LoadScale: 1},
			{Name: "high-load", Fraction: 0.04, LoadScale: 2},
			{Name: "crash-maneuver", Fraction: 0.01, LoadScale: 3},
		},
	}
}

// PassengerCabin is a representative OEM-level profile for a cabin-
// mounted ECU (milder environment).
func PassengerCabin(component string) *Profile {
	p := VehicleUnderhood(component)
	p.Stresses = []EnvironmentalStress{
		{Kind: Temperature, Min: -30, Max: 85, DutyCycle: 0.1},
		{Kind: Vibration, Min: 0, Max: 3, DutyCycle: 0.2},
		{Kind: Humidity, Min: 10, Max: 80, DutyCycle: 0.1},
		{Kind: EMI, Min: 0, Max: 30, DutyCycle: 0.02},
		{Kind: SupplyVoltage, Min: 9, Max: 16, DutyCycle: 0.01},
	}
	return p
}
