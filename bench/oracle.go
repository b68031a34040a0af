package main

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// oracleSample is the least number of scenarios of a round checked
// against the naive path.
const oracleSample = 200

// expected is what the naive path — rebuild per run, sequential, no
// checkpoints — classified one sampled scenario as.
type expected struct {
	index  int
	class  fault.Classification
	detail string
	sig    uint64
}

// oracle checks every round of a workload: the sampled indices against
// the naive path, and the whole result against the first round's digest.
type oracle struct {
	want   []expected
	digest uint64
	primed bool
}

// sampleEvery spreads at least oracleSample indices over n scenarios
// (all of them when n is small).
func sampleEvery(n int) int {
	k := n / oracleSample
	if k < 1 {
		k = 1
	}
	return k
}

// prime runs every k-th scenario through the naive RunFunc and records
// what it says.
func (o *oracle) prime(naive stressor.RunFunc, scenarios []fault.Scenario) {
	k := sampleEvery(len(scenarios))
	for i := 0; i < len(scenarios); i += k {
		out := naive(scenarios[i])
		o.want = append(o.want, expected{index: i, class: out.Class, detail: out.Detail, sig: out.Signature})
	}
}

// digest folds every outcome's identity, class, detail and signature,
// in order.
func digest(outs []fault.Outcome) uint64 {
	h := sim.NewStateHash()
	h.Int(len(outs))
	for _, o := range outs {
		h.Str(o.Scenario.ID)
		h.Int(int(o.Class))
		h.Str(o.Detail)
		h.U64(o.Signature)
	}
	return h.Sum()
}

// check verifies one round's outcomes. The first call fixes the digest
// later rounds must reproduce.
func (o *oracle) check(outs []fault.Outcome) error {
	for _, w := range o.want {
		if w.index >= len(outs) {
			return fmt.Errorf("oracle: result has %d outcomes, sample wants index %d", len(outs), w.index)
		}
		got := outs[w.index]
		if got.Class != w.class || got.Detail != w.detail || got.Signature != w.sig {
			return fmt.Errorf("oracle: scenario %d (%s): got %s %q sig %#x, naive path says %s %q sig %#x",
				w.index, got.Scenario.ID, got.Class, got.Detail, got.Signature, w.class, w.detail, w.sig)
		}
	}
	d := digest(outs)
	if !o.primed {
		o.digest, o.primed = d, true
		return nil
	}
	if d != o.digest {
		return fmt.Errorf("oracle: result digest %#x differs from the first round's %#x", d, o.digest)
	}
	return nil
}

// checkResult is check plus the engine-level failure signs: recovered
// panics and runs the engine gave up on.
func (o *oracle) checkResult(res *stressor.Result) error {
	if res.PanicRecoveries > 0 {
		return fmt.Errorf("oracle: %d runs panicked", res.PanicRecoveries)
	}
	if n := res.Tally[fault.Timeout]; n > 0 {
		return fmt.Errorf("oracle: %d runs timed out", n)
	}
	return o.check(res.Outcomes)
}
