package fault

import (
	"testing"

	"repro/internal/sim"
)

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want sim.Time
	}{
		{"7ps", 7 * sim.Picosecond},
		{"500ns", sim.NS(500)},
		{"200us", sim.US(200)},
		{"10ms", sim.MS(10)},
		{"3s", 3 * sim.Second},
		{"1.5ms", sim.US(1500)},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseDuration(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "10", "ms", "-3ms", "x10ms", "10 ms"} {
		if _, err := ParseDuration(bad); err == nil {
			t.Errorf("ParseDuration(%q) accepted", bad)
		}
	}
}

func TestParseDescriptorPermanent(t *testing.T) {
	d, err := ParseDescriptor("stuck-at-1 @caps.accel0.harness from 10ms")
	if err != nil {
		t.Fatal(err)
	}
	if d.Model != StuckAt1 || d.Target != "caps.accel0.harness" ||
		d.Class != Permanent || d.Start != sim.MS(10) {
		t.Errorf("d = %+v", d)
	}
}

func TestParseDescriptorTransientAndIntermittent(t *testing.T) {
	d, err := ParseDescriptor("open @s from 5ms for 200us")
	if err != nil {
		t.Fatal(err)
	}
	if d.Class != Transient || d.Duration != sim.US(200) {
		t.Errorf("d = %+v", d)
	}
	d, err = ParseDescriptor("open @s from 5ms for 200us every 2ms")
	if err != nil {
		t.Fatal(err)
	}
	if d.Class != Intermittent || d.Period != sim.MS(2) {
		t.Errorf("d = %+v", d)
	}
}

func TestParseDescriptorFields(t *testing.T) {
	d, err := ParseDescriptor("bit-flip @ecu.mem addr 0x1004 bit 3 param 0.5 from 2ms")
	if err != nil {
		t.Fatal(err)
	}
	if d.Address != 0x1004 || d.Bit != 3 || d.Param != 0.5 {
		t.Errorf("d = %+v", d)
	}
}

func TestParseDescriptorErrors(t *testing.T) {
	bad := []string{
		"",
		"stuck-at-1",
		"frobnicate @s",
		"stuck-at-1 site",
		"stuck-at-1 @",
		"stuck-at-1 @s bit",
		"stuck-at-1 @s bit 99",
		"stuck-at-1 @s addr zz",
		"stuck-at-1 @s wibble 3",
		"stuck-at-1 @s every 2ms", // every without for
		"stuck-at-1 @s from xx",
	}
	for _, s := range bad {
		if _, err := ParseDescriptor(s); err == nil {
			t.Errorf("ParseDescriptor(%q) accepted", s)
		}
	}
}

func TestParseScenario(t *testing.T) {
	sc, err := ParseScenario("dual", "short-to-supply @a from 1ms; short-to-supply @b from 1ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Faults) != 2 || sc.ID != "dual" {
		t.Fatalf("sc = %+v", sc)
	}
	if sc.Faults[0].Name == sc.Faults[1].Name {
		t.Error("fault names not unique")
	}
	if err := sc.Validate(); err != nil {
		t.Error(err)
	}
	if _, err := ParseScenario("empty", " ; "); err == nil {
		t.Error("empty scenario accepted")
	}
	if _, err := ParseScenario("bad", "nope @x"); err == nil {
		t.Error("bad chunk accepted")
	}
}

// Round trip: every model name parses back to its model.
func TestParseAllModelNames(t *testing.T) {
	for m, name := range modelNames {
		src := name + " @site from 1ms"
		if m == BitFlip || m == Delay {
			src += " for 1ms" // keep validation happy for any class rules
		}
		d, err := ParseDescriptor(src)
		if err != nil {
			t.Errorf("model %s: %v", name, err)
			continue
		}
		if d.Model != m {
			t.Errorf("model %s parsed as %s", name, d.Model)
		}
	}
}
