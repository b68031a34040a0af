package fault

import (
	"fmt"
	"math"

	"repro/internal/tlm"
)

// MemoryInjector serves bit-level faults on a tlm.Memory: BitFlip uses
// the SEU backdoor, StuckAt0/1 install permanent cell defects.
func MemoryInjector(site string, m *tlm.Memory) Injector {
	return &FuncInjector{
		SiteName: site,
		Models:   []Model{BitFlip, StuckAt0, StuckAt1},
		InjectFn: func(d Descriptor) error {
			switch d.Model {
			case BitFlip:
				return m.FlipBit(d.Address, d.Bit)
			case StuckAt0:
				return m.StuckAt(d.Address, d.Bit, false)
			case StuckAt1:
				return m.StuckAt(d.Address, d.Bit, true)
			default:
				return fmt.Errorf("fault: %s on memory site %s", d.Model, site)
			}
		},
		RevertFn: func(d Descriptor) error {
			switch d.Model {
			case StuckAt0, StuckAt1:
				m.ClearFaults()
			case BitFlip:
				// A flip is a state change, not a persistent fault —
				// nothing to revert.
			}
			return nil
		},
	}
}

// AnalogValue is implemented by models exposing a perturbable analog
// quantity (sensor outputs, supply rails).
type AnalogValue interface {
	// SetDisturbance installs an additive offset and a hard override.
	// NaN for override means "no override" (offset applies);
	// offset 0 and NaN override means fault-free.
	SetDisturbance(offset float64, override float64)
}

// AnalogInjector serves analog faults (offset, shorts, open) on an
// AnalogValue site. Shorts override the value to the given rail
// levels; open overrides to NaN handled by the model as "no signal".
func AnalogInjector(site string, v AnalogValue, groundLevel, supplyLevel float64) Injector {
	return &FuncInjector{
		SiteName: site,
		Models:   []Model{ValueOffset, ShortToGround, ShortToSupply, Open, StuckAt0, StuckAt1},
		InjectFn: func(d Descriptor) error {
			switch d.Model {
			case ValueOffset:
				v.SetDisturbance(d.Param, math.NaN())
			case ShortToGround, StuckAt0:
				v.SetDisturbance(0, groundLevel)
			case ShortToSupply, StuckAt1:
				v.SetDisturbance(0, supplyLevel)
			case Open:
				v.SetDisturbance(0, math.Inf(1)) // sentinel: line floating
			default:
				return fmt.Errorf("fault: %s on analog site %s", d.Model, site)
			}
			return nil
		},
		RevertFn: func(d Descriptor) error {
			v.SetDisturbance(0, math.NaN())
			return nil
		},
	}
}
