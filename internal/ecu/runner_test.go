package ecu

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stressor"
	"repro/internal/stressor/stressortest"
)

func TestRunnerGolden(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	g := r.Golden()
	if g.Outputs["halted"] != "true/true" {
		t.Fatalf("golden cores did not halt: %v", g.Outputs)
	}
	if g.Outputs["acc"] != g.Outputs["sacc"] {
		t.Fatalf("golden cores disagree: %v", g.Outputs)
	}
	if g.Outputs["acc"] == "0x0" {
		t.Fatalf("golden checksum is zero — workload not running")
	}
	if g.Detected || g.LatentState {
		t.Fatalf("golden run not clean: %+v", g)
	}
}

func TestRunnerGoldenRepeatsOnReusedSlot(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 3; i++ {
		ob, regs, table, err := r.execute(fault.Scenario{ID: fmt.Sprintf("g%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ob.Outputs, r.golden.Outputs) || ob.Detected {
			t.Fatalf("rerun %d drifted: %+v vs %+v", i, ob, r.golden)
		}
		if regs != r.goldenRegs {
			t.Fatalf("rerun %d register files drifted", i)
		}
		if !bytesEqual(table, r.goldenTable) {
			t.Fatalf("rerun %d table image drifted", i)
		}
	}
}

func TestRunnerDetectsRegisterUpset(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Flip a live accumulator bit in the primary only: the store
	// streams must diverge and lockstep must catch it.
	out := r.RunScenario(fault.Single(fault.Descriptor{
		Name: "seu-r3", Model: fault.BitFlip, Class: fault.Permanent,
		Target: "ecu.primary.regs", Address: 3, Bit: 7, Start: 0,
	}))
	if out.Class != fault.DetectedSafe {
		t.Fatalf("register upset not detected: %v (%s)", out.Class, out.Detail)
	}
}

func TestRunnerECCCorrectsTableUpset(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Flip a data bit in a table cell before it is read: ECC corrects
	// it on the fly, so the outputs match golden but the detection
	// counter trips.
	out := r.RunScenario(fault.Single(fault.Descriptor{
		Name: "seu-table", Model: fault.BitFlip, Class: fault.Permanent,
		Target: "ecu.primary.mem", Address: runnerTableBase + 0x40, Bit: 5, Start: 0,
	}))
	if out.Class != fault.DetectedSafe {
		t.Fatalf("table upset not ECC-detected: %v (%s)", out.Class, out.Detail)
	}
}

// TestShippedUniverseHash pins the fingerprints of the shipped SEU
// universe to the literals every journal of it carries.
func TestShippedUniverseHash(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for at, want := range map[sim.Time]string{0: "9e1cb3bcf9c61a7c", sim.US(2): "ea62c7755fb909e8"} {
		if got := stressor.UniverseHash(fault.Singles(r.Universe(at))); got != want {
			t.Errorf("universe at %v hashes to %s, journals carry %s", at, got, want)
		}
	}
}

// TestRunnerDeterminismMatrix asserts byte-identical campaign results
// across {rebuild, reuse} × {sequential, parallel} × {unsharded,
// 2-shard merged} × {fresh, resumed} — the shared cross-mode matrix on
// the second prototype family.
func TestRunnerDeterminismMatrix(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	scs := fault.Singles(r.Universe(0))
	r.Close()
	stressortest.Run(t, stressortest.Config{
		Name:      "ecu-seu",
		Scenarios: scs,
		NewRun: func(t *testing.T, reuseOff bool) (stressor.RunFunc, stressor.Checkpointer, func()) {
			r, err := NewRunner(DefaultRunnerConfig())
			if err != nil {
				t.Fatal(err)
			}
			r.ReuseOff = reuseOff
			return r.RunFunc(), r, r.Close
		},
		Shards: []int{1, 2},
	})
}

// TestRunnerCheckpointMatrix reruns the matrix with a non-zero
// injection time: Universe(0) scenarios all fork at time zero (no
// prefix to amortize, ForkTime declines them), so the matrix above
// only proves the transparent fallback. Injecting at 2µs makes every
// scenario fork-eligible and drives the ECU checkpoint sessions —
// snapshot of mid-run cores, restore, re-injection — through the full
// {seq,par} × {sharded} × {resumed} grid.
func TestRunnerCheckpointMatrix(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	scs := fault.Singles(r.Universe(sim.US(2)))
	r.Close()
	stressortest.Run(t, stressortest.Config{
		Name:      "ecu-seu-cp",
		Scenarios: scs,
		NewRun: func(t *testing.T, reuseOff bool) (stressor.RunFunc, stressor.Checkpointer, func()) {
			r, err := NewRunner(DefaultRunnerConfig())
			if err != nil {
				t.Fatal(err)
			}
			r.ReuseOff = reuseOff
			return r.RunFunc(), r, r.Close
		},
		Workers: []int{0, 2},
		Shards:  []int{1, 2},
	})
}

// TestRunnerSEUDetections guards the matrix against vacuity on the
// mechanism side: the SEU universe must actually trip detections.
func TestRunnerSEUDetections(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.NewCampaign("ecu-seu", stressor.Shard{}).Execute(fault.Singles(r.Universe(0)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally[fault.DetectedSafe] == 0 {
		t.Fatalf("no detections in SEU universe: %v", res.Tally)
	}
}

// TestRunnerAdaptiveDeterminismMatrix drives the adaptive campaign
// loop against the ECU prototype: the Novelty strategy mutates on
// real snapshot-state signatures, and every {workers} × {rebuild,
// reuse} × {fresh, resumed} cell must match the sequential reference.
func TestRunnerAdaptiveDeterminismMatrix(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	universe := r.Universe(0)
	r.Close()
	stressortest.RunAdaptive(t, stressortest.AdaptiveConfig{
		Name:     "ecu-seu-adaptive",
		Universe: universe,
		Budget:   16,
		NewRun: func(t *testing.T, reuseOff bool) (stressor.RunFunc, func()) {
			r, err := NewRunner(DefaultRunnerConfig())
			if err != nil {
				t.Fatal(err)
			}
			r.ReuseOff = reuseOff
			return r.SignedRunFunc(), r.Close
		},
	})
}
