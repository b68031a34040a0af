package fault_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/fault"
	"repro/internal/stressor"
)

// fmtUniverseHash is stressor.UniverseHash of one single-fault scenario
// as it was computed while the fault content went through fmt — the
// bytes every journal header written until then carries.
func fmtUniverseHash(d fault.Descriptor) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x01%v|%v|%v|%s|%d|%d|%g|%d|%d|%d|%g\x02\n", d.Name, d.Name,
		d.Model, d.Class, d.Domain, d.Target, d.Bit, d.Address, d.Param,
		d.Start, d.Duration, d.Period, d.Rate)
	return fmt.Sprintf("%016x", h.Sum64())
}

// FuzzDescriptor is the parser/printer round-trip contract: any
// descriptor ParseDescriptor accepts must survive Syntax→ParseDescriptor
// unchanged (struct equality), and must pass Validate. A violation
// means journals, dedup keys or command-line replays could silently
// drift from the campaign that produced them. It also holds the
// universe hash of every accepted descriptor to its fmt-built form.
func FuzzDescriptor(f *testing.F) {
	seeds := []string{
		"stuck-at-1 @caps.accel0.harness from 10ms",
		"bit-flip @ecu.mem addr 0x1004 bit 3 from 2ms",
		"open @caps.accel1.harness from 5ms for 200us every 2ms",
		"value-offset @caps.accel0.out param 0.5 from 1ms",
		"delay @ecu.bus param 1500 from 7us for 3us",
		"short-to-ground @x param +Inf",
		"stuck-at-0 @a bit 63 addr 0xffffffffffffffff from 4611686018427387ps",
		"babbling @net.can0 for 1ps every 2ps",
		"value-noise @s param -0",
		"value-noise @s param 1e21", "value-noise @s param 1e-7", "value-noise @s param 100000",
		"value-noise @s param 1e6", "value-noise @s param -Inf", "value-noise @s param NaN",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 4096 {
			return
		}
		d, err := fault.ParseDescriptor(s)
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("parse accepted invalid descriptor %+v from %q: %v", d, s, err)
		}
		syn := d.Syntax()
		d2, err := fault.ParseDescriptor(syn)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", syn, s, err)
		}
		if d != d2 {
			t.Fatalf("round-trip changed descriptor:\n in: %q\nsyn: %q\n d1: %+v\n d2: %+v", s, syn, d, d2)
		}
		if got, want := stressor.UniverseHash(fault.Singles([]fault.Descriptor{d})), fmtUniverseHash(d); got != want {
			t.Fatalf("universe hash of %+v is %s, the fmt form gives %s", d, got, want)
		}
	})
}
