package main

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// flipProto is a prototype whose runs report one scenario as
// no-effect, whatever the simulation said: a wrong verdict of the kind
// a broken shortcut would produce.
type flipProto struct {
	prototype
	victim string
}

func (p flipProto) flip(o fault.Outcome) fault.Outcome {
	if o.Scenario.ID == p.victim {
		o.Class = fault.NoEffect
	}
	return o
}

func (p flipProto) RunFunc() stressor.RunFunc {
	run := p.prototype.RunFunc()
	return func(sc fault.Scenario) fault.Outcome { return p.flip(run(sc)) }
}

func (p flipProto) NewTreeSession(cfg stressor.TreeConfig) stressor.CheckpointSession {
	return flipSession{CheckpointSession: p.prototype.NewTreeSession(cfg), p: p}
}

type flipSession struct {
	stressor.CheckpointSession
	p flipProto
}

func (s flipSession) Run(sc fault.Scenario, fork sim.Time) fault.Outcome {
	return s.p.flip(s.CheckpointSession.Run(sc, fork))
}

// smallInputs keeps a sweep round to a few hundred scenarios.
func smallInputs(seed int64) *inputs {
	in := generate(seed)
	in.CapsTimes, in.Pulses = in.CapsTimes[:12], in.Pulses[:12]
	return in
}

func TestOracleCatchesOneFlippedOutcome(t *testing.T) {
	s := &sweep{name: wlCapsPerm, journal: true}
	if err := s.setup(smallInputs(3), env{dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	defer s.close()

	clean := runWindow(s, nil, 0, 3)
	if clean.failed != 0 || clean.attempted != 3 {
		t.Fatalf("clean rounds: %d of %d failed: %v", clean.failed, clean.attempted, clean.firstErr)
	}

	// A detected fault turned into no-effect: pick the victim among the
	// outcomes the naive path did not already call no-effect.
	var victim string
	for _, w := range s.oracle.want {
		if w.class != fault.NoEffect {
			victim = s.scenarios[w.index].ID
			break
		}
	}
	if victim == "" {
		t.Fatal("every sampled outcome is no-effect; nothing to flip")
	}
	s.proto = flipProto{prototype: s.proto, victim: victim}
	flipped := runWindow(s, nil, 0, 3)
	if flipped.failed != flipped.attempted {
		t.Fatalf("flipped rounds: only %d of %d failed", flipped.failed, flipped.attempted)
	}
	if share := float64(flipped.failed) / float64(flipped.attempted); share <= 0 {
		t.Fatalf("failed_share = %v, want > 0", share)
	}
	if flipped.firstErr == nil || !strings.Contains(flipped.firstErr.Error(), "oracle") {
		t.Fatalf("failure does not name the oracle: %v", flipped.firstErr)
	}
}

func TestDigestCatchesAFlipOutsideTheSample(t *testing.T) {
	var o oracle
	outs := []fault.Outcome{
		{Scenario: fault.Scenario{ID: "a"}, Class: fault.Masked},
		{Scenario: fault.Scenario{ID: "b"}, Class: fault.DetectedSafe, Detail: "detected by x"},
	}
	if err := o.check(outs); err != nil {
		t.Fatal(err)
	}
	if err := o.check(outs); err != nil {
		t.Fatalf("identical second round: %v", err)
	}
	outs[1].Detail = "detected by y"
	if err := o.check(outs); err == nil {
		t.Fatal("a changed detail passed the digest check")
	}
}
