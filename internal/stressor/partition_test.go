package stressor

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/sim"
)

// partitionKey is what the injection-time partition orders a scenario
// by, before its position: the earliest Start among its faults, then
// its first fault's content.
func partitionKey(sc fault.Scenario) (sim.Time, fault.Descriptor) {
	if len(sc.Faults) == 0 {
		return 0, fault.Descriptor{}
	}
	start := sc.Faults[0].Start
	for _, d := range sc.Faults {
		start = min(start, d.Start)
	}
	return start, sc.Faults[0]
}

type generatedUniverse struct {
	name      string
	scenarios []fault.Scenario
	// folds marks a universe Dedup must shrink.
	folds bool
}

// generatedUniverses draws the universe shapes the partition must cut
// right: none, one injection instant, one Start and one content for
// all, duplicates for Dedup to fold, and multi-fault scenarios whose
// earliest fault is not their first (plus one with no fault at all).
func generatedUniverses() []generatedUniverse {
	rng := rand.New(rand.NewSource(27))
	targets := []string{"a", "b", "c"}
	models := []fault.Model{fault.StuckAt0, fault.StuckAt1, fault.BitFlip}
	desc := func(name string, start sim.Time) fault.Descriptor {
		return fault.Descriptor{
			Name: name, Target: targets[rng.Intn(len(targets))], Model: models[rng.Intn(len(models))],
			Bit: uint(rng.Intn(4)), Start: start,
		}
	}
	var single, folded, multi []fault.Scenario
	for i := 0; i < 23; i++ {
		single = append(single, fault.Single(desc(fmt.Sprintf("i%d", i), sim.MS(10))))
	}
	for i := 0; i < 40; i++ {
		sc := fault.Single(desc(fmt.Sprintf("f%d", i), sim.Time(rng.Intn(5))*sim.MS(1)))
		if i%3 == 2 { // a copy of an earlier scenario's content
			sc.Faults[0] = folded[rng.Intn(len(folded))].Faults[0]
			sc.Faults[0].Name, sc.ID = fmt.Sprintf("f%d", i), fmt.Sprintf("f%d", i)
		}
		folded = append(folded, sc)
	}
	multi = append(multi, fault.Scenario{ID: "none"})
	for i := 0; i < 31; i++ {
		sc := fault.Scenario{ID: fmt.Sprintf("m%d", i)}
		for k := 0; k <= rng.Intn(3); k++ {
			sc.Faults = append(sc.Faults, desc(fmt.Sprintf("m%d.%d", i, k), sim.Time(rng.Intn(6))*sim.MS(1)))
		}
		multi = append(multi, sc)
	}
	return []generatedUniverse{
		{name: "empty"},
		{name: "single-instant", scenarios: single},
		{name: "all-equal-start", scenarios: makeScenarios(17)},
		{name: "dedup-folded", scenarios: folded, folds: true},
		{name: "multi-fault", scenarios: multi},
	}
}

// instantMajor is a bench-shaped universe: every target at each of
// instants injection instants, instant after instant, all distinct.
func instantMajor(instants int) []fault.Scenario {
	var out []fault.Scenario
	for i := 0; i < instants; i++ {
		for _, target := range []string{"a", "b", "c", "d", "e"} {
			out = append(out, fault.Single(fault.Descriptor{
				Name: fmt.Sprintf("s%d", len(out)), Model: fault.StuckAt1, Target: target,
				Start: sim.MS(1) + sim.Time(i)*sim.US(250),
			}))
		}
	}
	return out
}

// roundRobin rewrites a shard set the way the round-robin rule would
// have journaled the same outcomes: entry by entry to shard u mod N,
// under headers that name no partition.
func roundRobin(js []*journal.Journal) []*journal.Journal {
	out := make([]*journal.Journal, len(js))
	for s, j := range js {
		h := j.Header
		h.Partition = ""
		out[s] = &journal.Journal{Header: h, Codec: j.Codec}
	}
	for _, j := range js {
		for _, e := range j.Entries {
			rr := out[e.Index%len(out)]
			rr.Entries = append(rr.Entries, e)
		}
	}
	return out
}

// TestMergeNamesIncompleteShard cuts the last entry off one shard's
// journal at a time: Merge must refuse the set and name that shard,
// under the injection-time rule and under round-robin.
func TestMergeNamesIncompleteShard(t *testing.T) {
	const shards = 3
	scenarios := instantMajor(8)
	run := func(sc fault.Scenario) fault.Outcome { return fault.Outcome{Scenario: sc, Class: fault.Masked} }
	_, js := executeShards(t, Campaign{Name: "inc", Run: run}, scenarios, shards)
	for rule, set := range map[string][]*journal.Journal{
		journal.PartitionInjectionTime: js,
		journal.PartitionRoundRobin:    roundRobin(js),
	} {
		if _, err := Merge(MergeSpec{}, scenarios, set); err != nil {
			t.Fatalf("%s: the complete set: %v", rule, err)
		}
		for s := range set {
			cut := append([]*journal.Journal(nil), set...)
			short := *set[s]
			short.Entries = short.Entries[:len(short.Entries)-1]
			cut[s] = &short
			_, err := Merge(MergeSpec{}, scenarios, cut)
			if want := fmt.Sprintf("shard %d/%d is incomplete", s, shards); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: shard %d cut short: err %v, want it to say %q", rule, s, err, want)
			}
		}
	}
}

// TestPartitionRuleRefusals: a campaign refuses to resume a shard
// journal cut by the other rule, and Merge refuses a set that mixes
// rules, both with a *journal.PartitionError naming the two rules —
// while a set cut wholly by either rule merges to the unsharded result.
func TestPartitionRuleRefusals(t *testing.T) {
	const shards = 2
	scenarios := instantMajor(4)
	var calls int
	run := func(sc fault.Scenario) fault.Outcome {
		calls++
		return fault.Outcome{Scenario: sc, Class: fault.Masked, Detail: sc.ID}
	}
	baseline, err := (&Campaign{Name: "rule", Run: run}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	_, js := executeShards(t, Campaign{Name: "rule", Run: run}, scenarios, shards)
	old := roundRobin(js)
	if got, err := Merge(MergeSpec{}, scenarios, old); err != nil || !reflect.DeepEqual(got, baseline) {
		t.Fatalf("round-robin set: err %v, or merged result differs from the unsharded run", err)
	}
	isRuleError := func(err error, got, want string) bool {
		var pe *journal.PartitionError
		return errors.As(err, &pe) && pe.Journal == got && pe.Want == want &&
			strings.Contains(err.Error(), got) && strings.Contains(err.Error(), want)
	}
	_, err = Merge(MergeSpec{}, scenarios, []*journal.Journal{js[0], old[1]})
	if !isRuleError(err, journal.PartitionRoundRobin, journal.PartitionInjectionTime) {
		t.Errorf("mixed set: err %v, want a PartitionError naming both rules", err)
	}
	calls = 0
	c := Campaign{Name: "rule", Run: run, Shard: Shard{Index: 1, Count: shards}, Resume: old[1]}
	if _, err := c.Execute(scenarios); !isRuleError(err, journal.PartitionRoundRobin, journal.PartitionInjectionTime) || calls != 0 {
		t.Errorf("resume of a round-robin shard: err %v after %d runs, want a PartitionError before any", err, calls)
	}
}
