package stressor

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/sim"
)

// fakeCheckpointer is a minimal Checkpointer for engine-level tests:
// every scenario forks at 1ps, sessions run via the supplied function,
// and the counters expose the engine's session lifecycle calls.
type fakeCheckpointer struct {
	run      RunFunc
	sessions atomic.Int32
	closes   atomic.Int32
}

func (f *fakeCheckpointer) ForkTime(fault.Scenario) (sim.Time, bool) { return 1, true }

func (f *fakeCheckpointer) planCache() *planCache { return nil }

func (f *fakeCheckpointer) NewTreeSession(TreeConfig) CheckpointSession {
	f.sessions.Add(1)
	return &fakeSession{f: f}
}

type fakeSession struct{ f *fakeCheckpointer }

func (s *fakeSession) Run(sc fault.Scenario, fork sim.Time) fault.Outcome { return s.f.run(sc) }

func (s *fakeSession) Close() { s.f.closes.Add(1) }

// TestCampaignTimeoutLateRunDiscarded forces the abandonment
// interleaving the timeout contract promises to survive: a scenario
// blocks past its wall-clock budget, the campaign records it as
// fault.Timeout and moves on, and only THEN does the runaway goroutine
// finish. Its late outcome must never reach the result or the journal
// — the journal holds exactly one entry per index, with the timed-out
// index classified timeout, even after the late goroutine has fully
// drained.
func TestCampaignTimeoutLateRunDiscarded(t *testing.T) {
	const n = 6
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			block := make(chan struct{})
			lateDone := make(chan struct{})
			run := func(sc fault.Scenario) fault.Outcome {
				if sc.ID == "s1" {
					<-block
					defer close(lateDone)
					// The late outcome is a loud failure class: if it leaked
					// into the result or journal, the assertions below trip.
					return fault.Outcome{Scenario: sc, Class: fault.SafetyCritical, Detail: "late write"}
				}
				return fault.Outcome{Scenario: sc, Class: fault.Masked, Detail: "ran " + sc.ID}
			}
			scenarios := makeScenarios(n)
			path := filepath.Join(t.TempDir(), "j.journal")
			w, err := journal.Create(path, shardHeader("late", Shard{}, scenarios))
			if err != nil {
				t.Fatal(err)
			}
			c := &Campaign{
				Name: "late", Run: run, Workers: workers,
				ScenarioTimeout: 20 * time.Millisecond, Journal: w,
			}
			res, err := c.Execute(scenarios)
			if err != nil {
				t.Fatal(err)
			}
			// Unblock the abandoned goroutine and wait for it to run to
			// completion before inspecting the journal: the race under
			// test is precisely this late finish.
			close(block)
			<-lateDone
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if res.Tally[fault.SafetyCritical] != 0 {
				t.Errorf("late outcome leaked into the result: %v", res.Tally)
			}
			if res.Outcomes[1].Class != fault.Timeout {
				t.Errorf("timed-out outcome = %+v", res.Outcomes[1])
			}
			j, err := journal.Read(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(j.Entries) != n {
				t.Fatalf("journal holds %d entries, want %d", len(j.Entries), n)
			}
			seen := make(map[int]int)
			for _, ent := range j.Entries {
				seen[ent.Index]++
				if ent.Index == 1 && ent.Class != fault.Timeout.String() {
					t.Errorf("journaled class for timed-out index = %q", ent.Class)
				}
				if ent.Class == fault.SafetyCritical.String() {
					t.Errorf("late outcome leaked into the journal: %+v", ent)
				}
			}
			for idx, count := range seen {
				if count != 1 {
					t.Errorf("index %d journaled %d times", idx, count)
				}
			}
		})
	}
}

// TestCampaignCheckpointSessionAbandonedOnTimeout: a timed-out run
// abandons the worker's session (the runaway goroutine still owns it),
// the next eligible run builds a fresh one, and the abandoned session is
// never Closed.
func TestCampaignCheckpointSessionAbandonedOnTimeout(t *testing.T) {
	const n = 5
	block := make(chan struct{})
	lateDone := make(chan struct{})
	cp := &fakeCheckpointer{}
	cp.run = func(sc fault.Scenario) fault.Outcome {
		if sc.ID == "s2" {
			defer close(lateDone)
			<-block
		}
		return fault.Outcome{Scenario: sc, Class: fault.Masked, Detail: "ran " + sc.ID}
	}
	c := &Campaign{Name: "ab", Checkpointer: cp, ScenarioTimeout: 20 * time.Millisecond}
	res, err := c.Execute(makeScenarios(n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[2].Class != fault.Timeout {
		t.Fatalf("timed-out outcome = %+v", res.Outcomes[2])
	}
	if res.Tally[fault.Masked] != n-1 {
		t.Errorf("tally = %v", res.Tally)
	}
	close(block)
	<-lateDone
	// Session 1 served s0, s1 and was abandoned at s2's timeout;
	// session 2 served s3, s4 and was closed at worker-loop end.
	if got := cp.sessions.Load(); got != 2 {
		t.Errorf("NewTreeSession called %d times, want 2 (fresh session after abandonment)", got)
	}
	if got := cp.closes.Load(); got != 1 {
		t.Errorf("Close called %d times, want 1 (abandoned session never closed)", got)
	}
}

// TestCampaignCheckpointSessionAbandonedOnPanic: same lifecycle for a
// panicking session run — recovered, recorded detected-safe, session
// abandoned and never closed.
func TestCampaignCheckpointSessionAbandonedOnPanic(t *testing.T) {
	const n = 4
	cp := &fakeCheckpointer{}
	cp.run = func(sc fault.Scenario) fault.Outcome {
		if sc.ID == "s1" {
			panic("kernel torn mid-run")
		}
		return fault.Outcome{Scenario: sc, Class: fault.Masked, Detail: "ran " + sc.ID}
	}
	res, err := (&Campaign{Name: "abp", Checkpointer: cp}).Execute(makeScenarios(n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[1].Class != fault.DetectedSafe || res.PanicRecoveries != 1 {
		t.Fatalf("panicked outcome = %+v (recoveries %d)", res.Outcomes[1], res.PanicRecoveries)
	}
	if got := cp.sessions.Load(); got != 2 {
		t.Errorf("NewTreeSession called %d times, want 2", got)
	}
	if got := cp.closes.Load(); got != 1 {
		t.Errorf("Close called %d times, want 1", got)
	}
}

// TestCampaignTreeValidation: a campaign with nothing to run on is
// rejected up front; a Checkpointer needs no Run beside it; and the
// retired Checkpoints/CheckpointTree/EarlyExit switches are inert: they
// are no reason to refuse a campaign.
func TestCampaignTreeValidation(t *testing.T) {
	run := classRunFunc(pattern(1, nil))
	scs := makeScenarios(1)
	cases := []struct {
		name string
		c    *Campaign
		want string
	}{
		{"neither Run nor Checkpointer", &Campaign{Name: "v"}, "neither Run nor Checkpointer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.c.Execute(scs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error mentioning %q, got: %v", tc.want, err)
			}
		})
	}
	if _, err := (&Campaign{Name: "v", Run: run, Checkpoints: true, CheckpointTree: true, EarlyExit: true}).Execute(scs); err != nil {
		t.Errorf("Checkpoints/CheckpointTree/EarlyExit without a Checkpointer refused: %v", err)
	}
	res, err := (&Campaign{Name: "v", Checkpointer: &fakeCheckpointer{run: run}}).Execute(scs)
	if err != nil || len(res.Outcomes) != len(scs) || res.Outcomes[0].Detail != run(scs[0]).Detail {
		t.Errorf("a Checkpointer without a Run: result %+v, error %v", res, err)
	}
}

// TestCampaignCheckpointDispatchSorted: with checkpointing on (and no
// StopOnFirst), the todo stream is dispatched in fork-time order so a
// session's golden prefix only ever extends — while the Result stays
// in scenario order, byte-identical to the unsorted run.
func TestCampaignCheckpointDispatchSorted(t *testing.T) {
	const n = 8
	baseRun := classRunFunc(pattern(n, nil))
	baseline, err := (&Campaign{Name: "cs", Run: baseRun}).Execute(makeScenarios(n))
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	cp := &fakeCheckpointer{}
	cp.run = func(sc fault.Scenario) fault.Outcome {
		var i int
		fmt.Sscanf(sc.ID, "s%d", &i)
		order = append(order, i)
		return baseRun(sc)
	}
	c := &Campaign{Name: "cs", Checkpointer: forkSorter{cp}}
	res, err := c.Execute(makeScenarios(n))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, baseline) {
		t.Errorf("checkpointed result diverged\ngot:  %+v\nwant: %+v", res, baseline)
	}
	// forkByIndex assigns descending fork times, so sequential dispatch
	// order must be exactly reversed index order.
	want := make([]int, n)
	for i := range want {
		want[i] = n - 1 - i
	}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("dispatch order = %v, want fork-sorted %v", order, want)
	}
}

// forkSorter wraps a fakeCheckpointer with per-index fork times.
type forkSorter struct {
	*fakeCheckpointer
}

func (forkSorter) ForkTime(sc fault.Scenario) (sim.Time, bool) {
	var i int
	fmt.Sscanf(sc.ID, "s%d", &i)
	return sim.Time(1000 - i), true // descending: s7 forks earliest
}

// TestCampaignHaltDuringReplay: an interrupt that fires while a
// resumed campaign is still replaying its journal — before any new
// run — must stop cleanly with zero new executions and zero new
// journal appends, leaving the journal valid and re-resumable to the
// exact uninterrupted result.
func TestCampaignHaltDuringReplay(t *testing.T) {
	const n, firstLeg = 9, 4
	scenarios := makeScenarios(n)
	run := classRunFunc(pattern(n, map[int]fault.Classification{6: fault.SDC}))
	baseline, err := (&Campaign{Name: "hr", Run: run}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "j.journal")
	h := shardHeader("hr", Shard{}, scenarios)
	w, err := journal.Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	c := &Campaign{
		Name: "hr", Run: run, Journal: w,
		Halt: func(completed int) bool { return completed >= firstLeg },
	}
	if _, err := c.Execute(scenarios); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Second leg: resume, but the halt hook reports an interrupt
	// immediately — the Ctrl-C landed while the journal was replaying.
	j, w2, err := journal.AppendTo(path, h)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	counted := func(sc fault.Scenario) fault.Outcome {
		calls.Add(1)
		return run(sc)
	}
	c2 := &Campaign{
		Name: "hr", Run: counted, Journal: w2, Resume: j,
		Halt: func(completed int) bool { return true },
	}
	partial, err := c2.Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Errorf("halt during replay still executed %d runs", calls.Load())
	}
	if w2.Appends() != 0 {
		t.Errorf("halt during replay appended %d journal entries", w2.Appends())
	}
	if len(partial.Outcomes) != firstLeg {
		t.Errorf("halted result holds %d outcomes, want the %d replayed", len(partial.Outcomes), firstLeg)
	}

	// Third leg: the journal must still be valid and resume to the
	// exact uninterrupted result.
	j3, w3, err := journal.AppendTo(path, h)
	if err != nil {
		t.Fatalf("journal no longer resumable after halt-during-replay: %v", err)
	}
	res, err := (&Campaign{Name: "hr", Run: run, Journal: w3, Resume: j3}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if err := w3.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, baseline) {
		t.Errorf("re-resumed result diverged\ngot:  %+v\nwant: %+v", res, baseline)
	}
}
