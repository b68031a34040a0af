package stressor

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/uvm"
)

// captureInjector records inject/revert times for assertions.
type capture struct {
	injectAt []sim.Time
	revertAt []sim.Time
	k        *sim.Kernel
}

func newCaptureRegistry(k *sim.Kernel, site string) (*fault.Registry, *capture) {
	cap := &capture{k: k}
	reg := fault.NewRegistry()
	reg.MustRegister(&fault.FuncInjector{
		SiteName: site,
		Models:   []fault.Model{fault.StuckAt0, fault.StuckAt1, fault.BitFlip},
		InjectFn: func(d fault.Descriptor) error {
			cap.injectAt = append(cap.injectAt, k.Now())
			return nil
		},
		RevertFn: func(d fault.Descriptor) error {
			cap.revertAt = append(cap.revertAt, k.Now())
			return nil
		},
	})
	return reg, cap
}

func runStressor(t *testing.T, sc fault.Scenario, horizon sim.Time, site string) (*Stressor, *capture) {
	t.Helper()
	k := sim.NewKernel()
	env := uvm.NewEnv(k)
	reg, cap := newCaptureRegistry(k, site)
	topc := &struct{ uvm.Comp }{}
	uvm.NewComp(topc, nil, "top")
	s := New(topc, "stressor", reg)
	s.Horizon = horizon
	s.SetScenario(sc)
	errs := env.RunTest(topc, horizon)
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	return s, cap
}

func TestPermanentFaultInjectedOnce(t *testing.T) {
	sc := fault.Single(fault.Descriptor{
		Name: "p", Model: fault.StuckAt1, Class: fault.Permanent,
		Target: "site", Start: sim.US(3),
	})
	s, cap := runStressor(t, sc, sim.MS(1), "site")
	if len(cap.injectAt) != 1 || cap.injectAt[0] != sim.US(3) {
		t.Errorf("injectAt = %v", cap.injectAt)
	}
	if len(cap.revertAt) != 0 {
		t.Errorf("permanent fault reverted: %v", cap.revertAt)
	}
	if len(s.Records()) != 1 || !s.Records()[0].Inject {
		t.Errorf("records = %+v", s.Records())
	}
}

func TestTransientWindow(t *testing.T) {
	sc := fault.Single(fault.Descriptor{
		Name: "tr", Model: fault.StuckAt0, Class: fault.Transient,
		Target: "site", Start: sim.US(10), Duration: sim.US(5),
	})
	_, cap := runStressor(t, sc, sim.MS(1), "site")
	if len(cap.injectAt) != 1 || cap.injectAt[0] != sim.US(10) {
		t.Errorf("injectAt = %v", cap.injectAt)
	}
	if len(cap.revertAt) != 1 || cap.revertAt[0] != sim.US(15) {
		t.Errorf("revertAt = %v", cap.revertAt)
	}
}

func TestIntermittentPulses(t *testing.T) {
	sc := fault.Single(fault.Descriptor{
		Name: "int", Model: fault.StuckAt0, Class: fault.Intermittent,
		Target: "site", Start: sim.US(0), Duration: sim.US(1), Period: sim.US(10),
	})
	_, cap := runStressor(t, sc, sim.US(35), "site")
	// Windows at 0,10,20,30 — four pulses inside the 35us horizon.
	if len(cap.injectAt) != 4 {
		t.Fatalf("injectAt = %v", cap.injectAt)
	}
	for i, want := range []sim.Time{0, sim.US(10), sim.US(20), sim.US(30)} {
		if cap.injectAt[i] != want {
			t.Errorf("pulse %d at %v, want %v", i, cap.injectAt[i], want)
		}
		if cap.revertAt[i] != want+sim.US(1) {
			t.Errorf("revert %d at %v, want %v", i, cap.revertAt[i], want+sim.US(1))
		}
	}
}

func TestMultiFaultScenarioOrdering(t *testing.T) {
	sc := fault.Scenario{ID: "multi", Faults: []fault.Descriptor{
		{Name: "late", Model: fault.StuckAt0, Class: fault.Permanent, Target: "site", Start: sim.US(20)},
		{Name: "early", Model: fault.StuckAt1, Class: fault.Permanent, Target: "site", Start: sim.US(5)},
	}}
	s, cap := runStressor(t, sc, sim.MS(1), "site")
	if len(cap.injectAt) != 2 || cap.injectAt[0] != sim.US(5) || cap.injectAt[1] != sim.US(20) {
		t.Errorf("injectAt = %v", cap.injectAt)
	}
	if s.Records()[0].Fault.Name != "early" {
		t.Errorf("first record = %s", s.Records()[0].Fault.Name)
	}
}

func TestInjectionErrorRecorded(t *testing.T) {
	sc := fault.Single(fault.Descriptor{
		Name: "bad", Model: fault.StuckAt0, Class: fault.Permanent,
		Target: "no-such-site", Start: 0,
	})
	s, _ := runStressor(t, sc, sim.MS(1), "site")
	if errs := s.InjectionErrors(); len(errs) != 1 {
		t.Errorf("InjectionErrors = %v", errs)
	}
}

func TestCampaignExecute(t *testing.T) {
	classes := []fault.Classification{fault.Masked, fault.SDC, fault.DetectedSafe, fault.SafetyCritical}
	i := 0
	c := &Campaign{
		Name: "test",
		Run: func(sc fault.Scenario) fault.Outcome {
			o := fault.Outcome{Scenario: sc, Class: classes[i%len(classes)]}
			i++
			return o
		},
	}
	scenarios := make([]fault.Scenario, 4)
	for j := range scenarios {
		scenarios[j] = fault.Single(fault.Descriptor{
			Name: string(rune('a' + j)), Model: fault.BitFlip, Target: "m",
		})
	}
	res, err := c.Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Total() != 4 || res.Tally.Failures() != 2 {
		t.Errorf("tally = %v", res.Tally)
	}
	if res.RunsToFirstFailure != 2 {
		t.Errorf("RunsToFirstFailure = %d, want 2", res.RunsToFirstFailure)
	}
	if got := res.ByClass(fault.SDC); len(got) != 1 {
		t.Errorf("ByClass(SDC) = %v", got)
	}
}

func TestCampaignStopOnFirst(t *testing.T) {
	runs := 0
	c := &Campaign{
		Name:        "stop",
		StopOnFirst: true,
		Run: func(sc fault.Scenario) fault.Outcome {
			runs++
			if runs == 3 {
				return fault.Outcome{Class: fault.SafetyCritical}
			}
			return fault.Outcome{Class: fault.Masked}
		},
	}
	scenarios := make([]fault.Scenario, 10)
	for j := range scenarios {
		scenarios[j] = fault.Single(fault.Descriptor{Name: string(rune('a' + j)), Target: "m"})
	}
	res, err := c.Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 3 || res.RunsToFirstFailure != 3 {
		t.Errorf("runs = %d, first = %d", runs, res.RunsToFirstFailure)
	}
	if len(res.Outcomes) != 3 {
		t.Errorf("outcomes = %d", len(res.Outcomes))
	}
}

func TestCampaignRejectsInvalidScenario(t *testing.T) {
	c := &Campaign{Name: "bad", Run: func(sc fault.Scenario) fault.Outcome { return fault.Outcome{} }}
	_, err := c.Execute([]fault.Scenario{{ID: ""}})
	if err == nil {
		t.Error("invalid scenario accepted")
	}
	var want error = err
	if want == nil || !errors.Is(err, err) {
		t.Error("error identity")
	}
}
