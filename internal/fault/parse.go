package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// ParseDescriptor parses the textual fault description syntax used by
// the command-line tools — a formalized, human-writable rendition of
// the Sec. 3.3 fault/error description:
//
//	<model> @<site> [bit N] [addr X] [param F] [from D] [for D] [every D]
//
// where D is a duration like "10ms", "50us", "3s" and model is one of
// the Model names ("stuck-at-1", "bit-flip", "open", ...). "for"
// makes the fault transient; "every" (with "for") makes it
// intermittent; otherwise it is permanent. Examples:
//
//	stuck-at-1 @caps.accel0.harness from 10ms
//	bit-flip @ecu.mem addr 0x1004 bit 3 from 2ms
//	open @caps.accel1.harness from 5ms for 200us every 2ms
func ParseDescriptor(s string) (Descriptor, error) {
	fields := strings.Fields(s)
	if len(fields) < 2 {
		return Descriptor{}, fmt.Errorf("fault: parse %q: want '<model> @<site> ...'", s)
	}
	var d Descriptor
	model, ok := modelsByName[fields[0]]
	if !ok {
		return Descriptor{}, fmt.Errorf("fault: parse %q: unknown model %q", s, fields[0])
	}
	d.Model = model
	if !strings.HasPrefix(fields[1], "@") || len(fields[1]) < 2 {
		return Descriptor{}, fmt.Errorf("fault: parse %q: second token must be @<site>", s)
	}
	d.Target = fields[1][1:]
	d.Name = fields[0] + "@" + d.Target

	i := 2
	var hasFor, hasEvery bool
	for i < len(fields) {
		key := fields[i]
		if i+1 >= len(fields) {
			return Descriptor{}, fmt.Errorf("fault: parse %q: %q needs a value", s, key)
		}
		val := fields[i+1]
		i += 2
		switch key {
		case "bit":
			n, err := strconv.ParseUint(val, 0, 8)
			if err != nil || n > 63 {
				return Descriptor{}, fmt.Errorf("fault: parse %q: bad bit %q", s, val)
			}
			d.Bit = uint(n)
		case "addr":
			n, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return Descriptor{}, fmt.Errorf("fault: parse %q: bad addr %q", s, val)
			}
			d.Address = n
		case "param":
			// NaN is rejected: a NaN parameter poisons descriptor
			// equality (dedup keys, journal replay cross-checks).
			// Infinities are fine — they round-trip and model open
			// lines.
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(f) {
				return Descriptor{}, fmt.Errorf("fault: parse %q: bad param %q", s, val)
			}
			d.Param = f
		case "from":
			t, err := ParseDuration(val)
			if err != nil {
				return Descriptor{}, fmt.Errorf("fault: parse %q: %v", s, err)
			}
			d.Start = t
		case "for":
			t, err := ParseDuration(val)
			if err != nil {
				return Descriptor{}, fmt.Errorf("fault: parse %q: %v", s, err)
			}
			d.Duration = t
			hasFor = true
		case "every":
			t, err := ParseDuration(val)
			if err != nil {
				return Descriptor{}, fmt.Errorf("fault: parse %q: %v", s, err)
			}
			d.Period = t
			hasEvery = true
		default:
			return Descriptor{}, fmt.Errorf("fault: parse %q: unknown keyword %q", s, key)
		}
	}
	switch {
	case hasEvery && hasFor:
		d.Class = Intermittent
	case hasEvery:
		return Descriptor{}, fmt.Errorf("fault: parse %q: 'every' requires 'for'", s)
	case hasFor:
		d.Class = Transient
	default:
		d.Class = Permanent
	}
	if err := d.Validate(); err != nil {
		return Descriptor{}, err
	}
	return d, nil
}

// Syntax renders the descriptor in the ParseDescriptor syntax, the
// inverse direction of the parser: for any descriptor ParseDescriptor
// produced, ParseDescriptor(d.Syntax()) reproduces it exactly. The
// FuzzDescriptor target pins this round-trip down.
func (d Descriptor) Syntax() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s @%s", d.Model, d.Target)
	if d.Bit != 0 {
		fmt.Fprintf(&b, " bit %d", d.Bit)
	}
	if d.Address != 0 {
		fmt.Fprintf(&b, " addr %#x", d.Address)
	}
	if d.Param != 0 {
		fmt.Fprintf(&b, " param %s", strconv.FormatFloat(d.Param, 'g', -1, 64))
	}
	if d.Start != 0 {
		fmt.Fprintf(&b, " from %dps", uint64(d.Start))
	}
	switch d.Class {
	case Transient:
		fmt.Fprintf(&b, " for %dps", uint64(d.Duration))
	case Intermittent:
		fmt.Fprintf(&b, " for %dps every %dps", uint64(d.Duration), uint64(d.Period))
	}
	return b.String()
}

// ParseScenario parses a semicolon-separated list of fault
// descriptions into one scenario.
func ParseScenario(id, s string) (Scenario, error) {
	sc := Scenario{ID: id}
	for _, chunk := range strings.Split(s, ";") {
		chunk = strings.TrimSpace(chunk)
		if chunk == "" {
			continue
		}
		d, err := ParseDescriptor(chunk)
		if err != nil {
			return Scenario{}, err
		}
		d.Name += "#" + strconv.Itoa(len(sc.Faults))
		sc.Faults = append(sc.Faults, d)
	}
	if len(sc.Faults) == 0 {
		return Scenario{}, fmt.Errorf("fault: scenario %q is empty", id)
	}
	return sc, nil
}

// ParseDuration parses "10ms", "200us", "3s", "500ns", "7ps" into
// simulated time.
func ParseDuration(s string) (sim.Time, error) {
	units := []struct {
		suffix string
		unit   sim.Time
	}{
		{"ps", sim.Picosecond}, {"ns", sim.Nanosecond}, {"us", sim.Microsecond},
		{"ms", sim.Millisecond}, {"s", sim.Second},
	}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			num := strings.TrimSuffix(s, u.suffix)
			if num == "" {
				continue
			}
			// Two-letter suffixes are tried before "s", so "10ms"
			// never reaches the "s" arm with num "10m"; a malformed
			// numeral simply fails ParseFloat below.
			// Reject NaN and anything whose picosecond value would
			// overflow the float→uint64 conversion (implementation-
			// specific past 2^63); 2^62 ps is ~53 days of simulated
			// time, far beyond any horizon.
			n, err := strconv.ParseFloat(num, 64)
			if err != nil || math.IsNaN(n) || n < 0 || n > float64(uint64(1)<<62)/float64(u.unit) {
				return 0, fmt.Errorf("fault: bad duration %q", s)
			}
			return sim.Time(n * float64(u.unit)), nil
		}
	}
	return 0, fmt.Errorf("fault: bad duration %q (want e.g. 10ms, 200us)", s)
}

// modelsByName resolves a model name (as printed by Model.String).
var modelsByName = func() map[string]Model {
	m := make(map[string]Model, len(modelNames))
	for model, name := range modelNames {
		m[name] = model
	}
	return m
}()
