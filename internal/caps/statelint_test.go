package caps

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// TestStateCoverageSystem is the state-coverage lint on the CAPS
// prototype, caught after a disturbed stretch so the observation
// histories and the propagation trace are non-empty. Every field of
// System and Sensor is perturbed and must move the digest and survive
// capture → perturb → restore, or is listed with the reason it need
// not.
func TestStateCoverageSystem(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	sys, _ := Build(k, Protected(), NormalDriving())
	if err := k.RunUntil(sim.MS(5)); err != nil {
		t.Fatal(err)
	}
	sys.sensors[0].SetDisturbance(3, math.NaN())
	sys.bus.CorruptNextFrames(2)
	if err := k.RunUntil(sim.MS(12)); err != nil {
		t.Fatal(err)
	}
	if len(sys.Detections) == 0 || len(sys.Severities) == 0 || sys.Trace.String() == "" {
		t.Fatalf("fixture too quiet: detections=%d severities=%d trace %q",
			len(sys.Detections), len(sys.Severities), sys.Trace.String())
	}

	simtest.StateCoverage(t, sys, sys, systemRules(sys))
	for _, sen := range sys.sensors {
		simtest.StateCoverage(t, sys, sen, map[string]simtest.Rule{
			"Name": simtest.NotState(config), "World": simtest.NotState(config),
			"Scale": simtest.NotState(config), "Rail": simtest.NotState(config),
		})
	}
}

// TestStateCoverageQuietSystem is the lint on an undisturbed stretch:
// nothing detected, so the capture's no-detections branch is the one
// restored.
func TestStateCoverageQuietSystem(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	sys, _ := Build(k, Protected(), NormalDriving())
	if err := k.RunUntil(sim.MS(12)); err != nil {
		t.Fatal(err)
	}
	if sys.Detections != nil || len(sys.Severities) == 0 {
		t.Fatalf("fixture not quiet: detections=%q severities=%d", sys.Detections, len(sys.Severities))
	}
	simtest.StateCoverage(t, sys, sys, systemRules(sys))
}

const (
	config = "configuration, constant after Build"
	wiring = "kernel objects and bus attachments, fixed by Build and kept by every restore"
)

// systemRules are the System rows of the lint; System.HashState's
// documented exclusions are the Unhashed rows.
func systemRules(sys *System) map[string]simtest.Rule {
	return map[string]simtest.Rule{
		"cfg": simtest.NotState(config), "k": simtest.NotState(wiring),
		"cycleEv": simtest.NotState(wiring), "wdEv": simtest.NotState(wiring),
		"sensors":     simtest.NotState("sensor list fixed by Build; Sensor state is linted below"),
		"sensorSites": simtest.NotState("the sensors' trace site names, built once by Build and only read"),
		"calib": simtest.Via("tlm.Memory is linted in its own package; here: System folds and restores it",
			func() { sys.calib.Poke(1, []byte{sys.calib.Peek(1, 1)[0] ^ 0x5a}) }),
		"bus": simtest.Via("can.Bus is linted in its own package; here: System folds and restores it",
			func() { sys.bus.DropNextFrames(1) }),
		"fusionTx": simtest.NotState(wiring), "airbagRx": simtest.NotState(wiring), "babbler": simtest.NotState(wiring),
		"Detections": simtest.Unhashed("accumulated observation history: model.Converged splices it at early-exit (see HashState)"),
		"Severities": simtest.Unhashed("accumulated observation history: model.Converged splices it at early-exit (see HashState)"),
		"Trace":      simtest.Unhashed("pure diagnostics: a fault that leaves only a trace residue has no remaining effect (see HashState)"),
	}
}
