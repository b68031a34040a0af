package stressor

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/sim"
)

// TestShardHoldsOnlyItsSlots: a sharded Execute holds a slot for each
// position its shard owns and no other — with and without a kept plan,
// with and without Dedup folding across shards — and its Result still
// names universe indices. A resumed journal entry of a run another shard
// owns is checked like any, then dropped: a conflicting repeat of it is
// refused and a clean one leaves the result as a fresh run's.
func TestShardHoldsOnlyItsSlots(t *testing.T) {
	scenarios := distinctScenarios(23)
	scenarios[17].Faults = scenarios[2].Faults // folded across shards
	fail := map[string]fault.Classification{"s9": fault.SDC, "s20": fault.DetectedSafe}
	run := func(sc fault.Scenario) fault.Outcome {
		cls, ok := fail[sc.ID]
		if !ok {
			cls = fault.Masked
		}
		return fault.Outcome{Scenario: sc, Class: cls, Detail: "ran"}
	}
	p := newEarliestFork(t)
	for _, dedup := range []bool{false, true} {
		set := NewShardSet("view", scenarios, dedup, 3)
		whole, err := (&Campaign{Name: "view", Run: run, Dedup: dedup}).Execute(scenarios)
		if err != nil {
			t.Fatal(err)
		}
		var shards []*Result
		for s := range 3 {
			name := fmt.Sprintf("dedup=%v/shard %d", dedup, s)
			sh := Shard{Index: s, Count: 3}
			for _, c := range []*Campaign{{Name: "view", Dedup: dedup, Shard: sh, Run: run}, {Name: "view", Dedup: dedup, Shard: sh, Checkpointer: p}} {
				if e := newExec(c, scenarios); len(e.slots) != set.Owned(s) {
					t.Fatalf("%s: %d slots, the shard owns %d", name, len(e.slots), set.Owned(s))
				}
			}
			c := Campaign{Name: "view", Run: run, Dedup: dedup, Shard: sh}
			res, err := c.Execute(scenarios)
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, res)
			if f, ok := res.FirstFailure(); ok {
				if i := slices.IndexFunc(scenarios, func(sc fault.Scenario) bool { return sc.ID == f.Scenario.ID }); res.RunsToFirstFailure != i+1 {
					t.Fatalf("%s: first failure %s at run %d, universe index %d", name, f.Scenario.ID, res.RunsToFirstFailure, i)
				}
			}

			// Another shard's entry in this shard's journal: checked, dropped.
			d := newUniversePlan(scenarios, dedup, nil).bind(scenarios)
			owners := freshOwners(scenarios, dedup, 3)
			foreign := slices.IndexFunc(owners, func(o int) bool { return o != s })
			i := d.index(foreign)
			entry := journal.Entry{Index: i, ID: scenarios[i].ID, Class: fault.Masked.String(), Detail: "ran"}
			c.Resume = &journal.Journal{Header: c.JournalHeader(scenarios), Entries: []journal.Entry{entry}}
			if got, err := c.Execute(scenarios); err != nil || !reflect.DeepEqual(got, res) {
				t.Fatalf("%s: resumed with another shard's entry: %v, result equal to a fresh run's: %v", name, err, reflect.DeepEqual(got, res))
			}
			conflict := entry
			conflict.Class = fault.SDC.String()
			c.Resume.Entries = []journal.Entry{entry, conflict}
			if _, err := c.Execute(scenarios); !errors.Is(err, ErrConflict) {
				t.Fatalf("%s: another shard's run journaled twice with two classes: %v", name, err)
			}
			bad := entry
			bad.ID = "nobody"
			c.Resume.Entries = []journal.Entry{bad}
			if _, err := c.Execute(scenarios); err == nil || !strings.Contains(err.Error(), "universe has") {
				t.Fatalf("%s: another shard's entry naming the wrong scenario: %v", name, err)
			}
		}
		var outcomes int
		for _, res := range shards {
			outcomes += len(res.Outcomes)
		}
		if outcomes != len(whole.Outcomes) {
			t.Fatalf("dedup=%v: the shards hold %d outcomes, the whole run %d", dedup, outcomes, len(whole.Outcomes))
		}
	}
}

// TestShardPlansSharedAcrossConcurrentLeases: the shards of one universe
// executed at once on one host, as a fabric's workers lease them, share
// the host's kept plan and its shard views, and each result is the one
// a host of its own gives.
func TestShardPlansSharedAcrossConcurrentLeases(t *testing.T) {
	var scenarios []fault.Scenario
	for at := sim.Time(1); at < windowHorizon; at += 7 {
		for _, site := range []string{"toy.reg", "toy.reg2", "toy.line"} {
			scenarios = append(scenarios, fault.Single(permanent(fmt.Sprintf("%s@%d", site, uint64(at)), site, fault.StuckAt1, at)))
		}
	}
	const count = 4
	want := make([]*Result, count)
	for s := range want {
		res, err := (&Campaign{Name: "lease", Shard: Shard{Index: s, Count: count}, Checkpointer: newWindowHost(t)}).Execute(scenarios)
		if err != nil {
			t.Fatal(err)
		}
		want[s] = res
	}
	h := newWindowHost(t)
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2 * count {
				s := (i + g) % count
				res, err := (&Campaign{Name: "lease", Shard: Shard{Index: s, Count: count}, Checkpointer: h}).Execute(scenarios)
				if err != nil || !reflect.DeepEqual(res, want[s]) {
					t.Errorf("goroutine %d, shard %d: %v, result equal to its own host's: %v", g, s, err, err == nil && reflect.DeepEqual(res, want[s]))
					return
				}
			}
		}()
	}
	wg.Wait()
}
