package fault

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/tlm"
)

func TestDescriptorValidate(t *testing.T) {
	good := Descriptor{Name: "f1", Model: StuckAt0, Target: "x"}
	if err := good.Validate(); err != nil {
		t.Errorf("good descriptor rejected: %v", err)
	}
	cases := []Descriptor{
		{Model: StuckAt0, Target: "x"},                                        // no name
		{Name: "f", Model: StuckAt0},                                          // no target
		{Name: "f", Target: "x", Class: Transient},                            // zero duration
		{Name: "f", Target: "x", Class: Intermittent, Duration: 5, Period: 5}, // period<=duration
		{Name: "f", Target: "x", Bit: 64},                                     // bit range
	}
	for i, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, d)
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	sc := Scenario{ID: "s", Faults: []Descriptor{{Name: "f", Model: BitFlip, Target: "m"}}}
	if err := sc.Validate(); err != nil {
		t.Errorf("good scenario rejected: %v", err)
	}
	if err := (Scenario{}).Validate(); err == nil {
		t.Error("scenario without ID accepted")
	}
	bad := Scenario{ID: "s", Faults: []Descriptor{{Name: "", Target: "m"}}}
	if err := bad.Validate(); err == nil {
		t.Error("scenario with bad fault accepted")
	}
	single := Single(Descriptor{Name: "f9", Target: "t"})
	if single.ID != "f9" || len(single.Faults) != 1 {
		t.Errorf("Single = %+v", single)
	}
}

func TestStringers(t *testing.T) {
	if StuckAt1.String() != "stuck-at-1" || Babbling.String() != "babbling" {
		t.Error("model strings")
	}
	if Permanent.String() != "permanent" || Intermittent.String() != "intermittent" {
		t.Error("class strings")
	}
	if DigitalHW.String() != "digital-hw" || Communication.String() != "communication" {
		t.Error("domain strings")
	}
	d := Descriptor{Name: "f", Model: Open, Class: Transient, Target: "net3", Start: sim.NS(5), Duration: sim.NS(1)}
	if got := d.String(); !strings.Contains(got, "transient open on net3") {
		t.Errorf("descriptor string = %q", got)
	}
}

func TestClassificationOrder(t *testing.T) {
	order := []Classification{NoEffect, Masked, DetectedSafe, Latent, SDC, TimingViolation, SafetyCritical}
	for i := 1; i < len(order); i++ {
		if order[i].Severity() <= order[i-1].Severity() {
			t.Errorf("severity(%s) <= severity(%s)", order[i], order[i-1])
		}
	}
	if !SDC.IsFailure() || !SafetyCritical.IsFailure() || !TimingViolation.IsFailure() {
		t.Error("IsFailure wrong")
	}
	if DetectedSafe.IsFailure() || Masked.IsFailure() {
		t.Error("non-failures flagged")
	}
}

func TestTally(t *testing.T) {
	tally := make(Tally)
	tally.Add(Outcome{Class: Masked})
	tally.Add(Outcome{Class: Masked})
	tally.Add(Outcome{Class: SDC})
	if tally.Total() != 3 || tally.Failures() != 1 {
		t.Errorf("tally = %v", tally)
	}
	s := tally.String()
	if !strings.Contains(s, "masked=2") || !strings.Contains(s, "sdc=1") {
		t.Errorf("tally string = %q", s)
	}
	if (make(Tally)).String() != "empty" {
		t.Error("empty tally string")
	}
}

func TestFuncInjectorSupports(t *testing.T) {
	var injected, reverted bool
	inj := &FuncInjector{
		SiteName: "s",
		Models:   []Model{StuckAt0},
		InjectFn: func(d Descriptor) error { injected = true; return nil },
		RevertFn: func(d Descriptor) error { reverted = true; return nil },
	}
	if !inj.Supports(StuckAt0) || inj.Supports(BitFlip) {
		t.Error("Supports wrong")
	}
	if err := inj.Inject(Descriptor{Name: "f", Target: "s", Model: BitFlip}); err == nil {
		t.Error("unsupported model injected")
	}
	if err := inj.Inject(Descriptor{Name: "f", Target: "s", Model: StuckAt0}); err != nil || !injected {
		t.Error("supported model failed")
	}
	if err := inj.Revert(Descriptor{}); err != nil || !reverted {
		t.Error("revert failed")
	}
	nilRevert := &FuncInjector{SiteName: "x", InjectFn: func(Descriptor) error { return nil }}
	if err := nilRevert.Revert(Descriptor{}); err != nil {
		t.Error("nil RevertFn should no-op")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	mk := func(site string) Injector {
		return &FuncInjector{SiteName: site, Models: []Model{StuckAt0},
			InjectFn: func(Descriptor) error { return nil }}
	}
	if err := r.Register(mk("b")); err != nil {
		t.Fatal(err)
	}
	r.MustRegister(mk("a"))
	if err := r.Register(mk("a")); err == nil {
		t.Error("duplicate site accepted")
	}
	if got := r.Sites(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Sites = %v", got)
	}
	if _, ok := r.Lookup("a"); !ok {
		t.Error("Lookup failed")
	}
	if err := r.Inject(Descriptor{Name: "f", Target: "zz", Model: StuckAt0}); err == nil {
		t.Error("unknown site injected")
	}
	if err := r.Revert(Descriptor{Name: "f", Target: "zz"}); err == nil {
		t.Error("unknown site reverted")
	}
	if err := r.Inject(Descriptor{Name: "f", Target: "a", Model: StuckAt0}); err != nil {
		t.Error(err)
	}
}

func TestUniverse(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(&FuncInjector{SiteName: "net1", Models: []Model{StuckAt0, StuckAt1},
		InjectFn: func(Descriptor) error { return nil }})
	r.MustRegister(&FuncInjector{SiteName: "mem", Models: []Model{BitFlip},
		InjectFn: func(Descriptor) error { return nil }})
	u := r.Universe([]Model{StuckAt0, StuckAt1, BitFlip}, Permanent, sim.NS(10), 0, 0)
	if len(u) != 3 {
		t.Fatalf("universe size = %d, want 3", len(u))
	}
	names := map[string]bool{}
	for _, d := range u {
		names[d.Name] = true
		if err := d.Validate(); err != nil {
			t.Errorf("universe descriptor invalid: %v", err)
		}
		if d.Start != sim.NS(10) {
			t.Errorf("start = %v", d.Start)
		}
	}
	// Sites enumerate sorted however they were registered.
	for i, want := range []string{"mem/bit-flip", "net1/stuck-at-0", "net1/stuck-at-1"} {
		if !names[want] || u[i].Name != want {
			t.Errorf("universe[%d] = %s, want %s (have %v)", i, u[i].Name, want, names)
		}
	}
	if sites := r.Sites(); len(sites) != 2 || sites[0] != "mem" || sites[1] != "net1" {
		t.Errorf("sites = %v", sites)
	}
}

// TestUniverseConcurrentCalls: goroutines enumerating one freshly
// elaborated registry at once — the first calls build its table of
// named models — each get exactly what a sequential call gets, on that
// registry and on one of its own. A model past the table is still asked
// for, and a site registered after a call is in the next one.
func TestUniverseConcurrentCalls(t *testing.T) {
	models := []Model{StuckAt0, StuckAt1, BitFlip, Open, ShortToGround, ShortToSupply, ValueOffset, Corruption, Omission, Babbling, Model(200)}
	elaborate := func() *Registry {
		r := NewRegistry()
		for i := 9; i >= 0; i-- {
			r.MustRegister(&FuncInjector{SiteName: fmt.Sprintf("caps.site%d.harness", i),
				Models: []Model{models[i], models[(i+3)%10], Model(200)}, InjectFn: func(Descriptor) error { return nil }})
		}
		return r
	}
	want := elaborate().Universe(models, Transient, sim.NS(7), sim.NS(3), sim.NS(5))
	if len(want) != 30 || want[0].Name != "caps.site0.harness/stuck-at-0" || want[2].Name != "caps.site0.harness/Model(200)" {
		t.Fatalf("sequential universe: %d descriptors, first %v", len(want), want[:min(3, len(want))])
	}
	r := elaborate()
	got := make([][]Descriptor, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = r.Universe(models, Transient, sim.NS(7), sim.NS(3), sim.NS(5))
		}()
	}
	wg.Wait()
	got = append(got, r.Universe(models, Transient, sim.NS(7), sim.NS(3), sim.NS(5)))
	for g, u := range got {
		if !reflect.DeepEqual(u, want) {
			t.Fatalf("call %d: %v, want %v", g, u, want)
		}
		if cap(u) != len(u) {
			t.Fatalf("call %d: %d descriptors in a slice of %d", g, len(u), cap(u))
		}
	}
	r.MustRegister(&FuncInjector{SiteName: "caps.late", Models: []Model{Omission}, InjectFn: func(Descriptor) error { return nil }})
	if u := r.Universe(models, Transient, 0, 0, 0); len(u) != len(want)+1 || u[0].Name != "caps.late/omission" {
		t.Fatalf("after a late Register: %d descriptors, first %s", len(u), u[0].Name)
	}
	if u := r.Universe([]Model{Delay}, Permanent, 0, 0, 0); u != nil {
		t.Fatalf("no site supports delay, got %v", u)
	}
}

var universeSink []Descriptor

// BenchmarkRegistryUniverse enumerates a CAPS-sized fault space (ten
// sites, ten models, a fifth of the pairs supported) — what a resolver
// pays per injection instant.
func BenchmarkRegistryUniverse(b *testing.B) {
	r := NewRegistry()
	models := []Model{StuckAt0, StuckAt1, BitFlip, Open, ShortToGround, ShortToSupply, ValueOffset, Corruption, Omission, Babbling}
	for i := 9; i >= 0; i-- {
		r.MustRegister(&FuncInjector{SiteName: fmt.Sprintf("caps.site%d.harness", i),
			Models: []Model{models[i], models[(i+3)%len(models)]}, InjectFn: func(Descriptor) error { return nil }})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		universeSink = r.Universe(models, Permanent, sim.Time(i), 0, 0)
	}
}

func TestMemoryInjectorAdapter(t *testing.T) {
	m := tlm.NewMemory("ram", 0x100, 64)
	m.Poke(0x104, []byte{0x00})
	inj := MemoryInjector("ecu.ram", m)
	if inj.Site() != "ecu.ram" {
		t.Error("site wrong")
	}
	if err := inj.Inject(Descriptor{Name: "seu", Model: BitFlip, Target: "ecu.ram", Address: 0x104, Bit: 2}); err != nil {
		t.Fatal(err)
	}
	if m.Peek(0x104, 1)[0] != 0x04 {
		t.Errorf("flip result = %#x", m.Peek(0x104, 1)[0])
	}
	if err := inj.Inject(Descriptor{Name: "sa", Model: StuckAt1, Target: "ecu.ram", Address: 0x105, Bit: 0}); err != nil {
		t.Fatal(err)
	}
	var d sim.Time
	p := tlm.NewRead(0x105, 1)
	m.BTransport(p, &d)
	if p.Data[0]&1 != 1 {
		t.Error("stuck-at via adapter not visible")
	}
	if err := inj.Revert(Descriptor{Model: StuckAt1}); err != nil {
		t.Fatal(err)
	}
	q := tlm.NewRead(0x105, 1)
	m.BTransport(q, &d)
	if q.Data[0]&1 != 0 {
		t.Error("revert did not clear stuck-at")
	}
	if err := inj.Inject(Descriptor{Name: "x", Model: Open, Target: "ecu.ram"}); err == nil {
		t.Error("unsupported model on memory accepted")
	}
}

type fakeAnalog struct {
	offset, override float64
}

func (f *fakeAnalog) SetDisturbance(offset, override float64) {
	f.offset, f.override = offset, override
}

func TestAnalogInjectorAdapter(t *testing.T) {
	v := &fakeAnalog{override: math.NaN()}
	inj := AnalogInjector("sensor.out", v, 0.0, 5.0)
	if err := inj.Inject(Descriptor{Name: "drift", Model: ValueOffset, Target: "sensor.out", Param: 0.3}); err != nil {
		t.Fatal(err)
	}
	if v.offset != 0.3 || !math.IsNaN(v.override) {
		t.Errorf("offset fault: %+v", v)
	}
	if err := inj.Inject(Descriptor{Name: "stg", Model: ShortToGround, Target: "sensor.out"}); err != nil {
		t.Fatal(err)
	}
	if v.override != 0.0 {
		t.Errorf("short to ground: %+v", v)
	}
	if err := inj.Inject(Descriptor{Name: "sts", Model: ShortToSupply, Target: "sensor.out"}); err != nil {
		t.Fatal(err)
	}
	if v.override != 5.0 {
		t.Errorf("short to supply: %+v", v)
	}
	if err := inj.Inject(Descriptor{Name: "open", Model: Open, Target: "sensor.out"}); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(v.override, 1) {
		t.Errorf("open: %+v", v)
	}
	if err := inj.Revert(Descriptor{}); err != nil {
		t.Fatal(err)
	}
	if v.offset != 0 || !math.IsNaN(v.override) {
		t.Errorf("revert: %+v", v)
	}
}

// Property: Universe descriptors are unique by name and all validate.
func TestPropertyUniverseUnique(t *testing.T) {
	f := func(nSites uint8, modelSel uint8) bool {
		r := NewRegistry()
		n := int(nSites%10) + 1
		for i := 0; i < n; i++ {
			site := string(rune('a' + i))
			r.MustRegister(&FuncInjector{SiteName: site,
				Models:   []Model{StuckAt0, StuckAt1, BitFlip, Open},
				InjectFn: func(Descriptor) error { return nil }})
		}
		models := []Model{StuckAt0, StuckAt1, BitFlip, Open}[:modelSel%4+1]
		u := r.Universe(models, Permanent, 0, 0, 0)
		seen := map[string]bool{}
		for _, d := range u {
			if seen[d.Name] || d.Validate() != nil {
				return false
			}
			seen[d.Name] = true
		}
		return len(u) == n*len(models)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
