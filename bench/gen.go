package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/sim"
)

// Input sizes. They are benchmark constants: changing one changes what
// every number means, so they are not flags.
const (
	capsHorizon     = 80 * sim.Millisecond
	capsTimes       = 304 // injection instants per CAPS sweep round
	capsTimeLo      = 1 * sim.Millisecond
	capsTimeHi      = 76 * sim.Millisecond
	pulseLo         = 100 * sim.Microsecond
	pulseHi         = 800 * sim.Microsecond
	ecuTimes        = 10
	ecuTimeLo       = 10 * sim.Microsecond
	ecuTimeHi       = 150 * sim.Microsecond
	adaptiveHorizon = 30 * sim.Millisecond
	adaptiveInject  = 10 * sim.Millisecond
	adaptiveBudget  = 4000
	daemonSpecs     = 8  // distinct spec bodies the daemon client cycles through
	daemonInstants  = 32 // injection instants per spec: 21 x 32 scenarios an op
	fabricShards    = 8
)

// inputs is everything the seed decides. The program under test only
// ever sees what is derived from these fields — scenario lists and spec
// bytes — never the seed itself, except adaptive-novelty, whose
// strategy seed is its input.
type inputs struct {
	Seed int64
	// CapsTimes are the distinct injection instants of both CAPS sweeps
	// and the fabric sweep, in draw order.
	CapsTimes []sim.Time
	// Pulses are the transient pulse widths, one per injection instant.
	Pulses []sim.Time
	// ECUTimes are the SEU injection instants.
	ECUTimes []sim.Time
	// DaemonTimes are the injection instants of each daemon spec.
	DaemonTimes [][]sim.Time
}

// spreadTimes draws n microsecond-aligned instants in [lo, hi), one in
// each of n equal strata, then shuffles them. Stratifying keeps the sum
// of the instants — and with it the simulated time of a round — nearly
// the same at every seed, so runs at different seeds measure the same
// amount of work on different inputs.
func spreadTimes(rng *rand.Rand, n int, lo, hi sim.Time) []sim.Time {
	width := int64((hi - lo) / sim.Microsecond / sim.Time(n))
	out := make([]sim.Time, n)
	for i := range out {
		out[i] = lo + sim.Time(int64(i)*width+rng.Int63n(width))*sim.Microsecond
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// generate derives every workload's inputs from seed.
func generate(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{Seed: seed}
	in.CapsTimes = spreadTimes(rng, capsTimes, capsTimeLo, capsTimeHi)
	in.Pulses = make([]sim.Time, capsTimes)
	for i := range in.Pulses {
		in.Pulses[i] = pulseLo + sim.Time(rng.Int63n(int64((pulseHi-pulseLo)/sim.Microsecond)+1))*sim.Microsecond
	}
	in.ECUTimes = spreadTimes(rng, ecuTimes, ecuTimeLo, ecuTimeHi)
	for i := 0; i < daemonSpecs; i++ {
		in.DaemonTimes = append(in.DaemonTimes, spreadTimes(rng, daemonInstants, capsTimeLo, capsTimeHi))
	}
	return in
}

// daemonSpec is the POST /runs body: an inline universe, the E8
// single-fault universe at one spec's instants.
type daemonSpec struct {
	Campaign       string         `json:"campaign"`
	Universe       daemonUniverse `json:"universe"`
	Workers        int            `json:"workers"`
	CheckpointTree bool           `json:"checkpoint_tree"`
}

type daemonUniverse struct {
	Kind      string           `json:"kind"`
	World     string           `json:"world"`
	Horizon   string           `json:"horizon"`
	Scenarios []daemonScenario `json:"scenarios"`
}

type daemonScenario struct {
	ID     string `json:"id"`
	Faults string `json:"faults"`
}

// daemonSpecBodies renders the spec bodies the daemon client cycles
// through. Two worlds alternate, so the daemon holds two runner keys
// inside its default cache of four.
func (in *inputs) daemonSpecBodies(universe universeFunc) [][]byte {
	var out [][]byte
	for i, times := range in.DaemonTimes {
		world := [2]string{"normal", "crash"}[i%2]
		spec := daemonSpec{
			Campaign: fmt.Sprintf("bench-%s-%d", world, i),
			Universe: daemonUniverse{Kind: "inline", World: world, Horizon: "80ms"},
			Workers:  engineWorkers, CheckpointTree: true,
		}
		for _, sc := range sweepUniverse(universe, times, nil) {
			spec.Universe.Scenarios = append(spec.Universe.Scenarios, daemonScenario{ID: sc.ID, Faults: sc.Faults[0].Syntax()})
		}
		body, err := json.Marshal(spec)
		if err != nil {
			panic(err) // a struct of strings, ints and bools always marshals
		}
		out = append(out, body)
	}
	return out
}

// universeFunc enumerates a prototype's single-fault descriptors at one
// activation time (caps.Runner.Universe, ecu.Runner.Universe).
type universeFunc func(start sim.Time) []fault.Descriptor

// sweepUniverse expands the injection instants into the scenario list
// of one sweep round. A zero pulses slice keeps the faults permanent;
// otherwise fault i*len+j becomes a transient of width pulses[i].
// Descriptor names carry the instant so scenario IDs are unique.
func sweepUniverse(universe universeFunc, times, pulses []sim.Time) []fault.Scenario {
	var out []fault.Scenario
	for i, t := range times {
		for _, d := range universe(t) {
			d.Name += fmt.Sprintf("@%dus", uint64(t/sim.Microsecond))
			if pulses != nil {
				d.Class = fault.Transient
				d.Duration = pulses[i]
			}
			out = append(out, fault.Single(d))
		}
	}
	return out
}
