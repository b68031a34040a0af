package stressor

import (
	"cmp"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
)

// TestShardPartition checks the injection-time partition on generated
// universes — single-instant, all-equal Start, dedup-folded,
// multi-fault, empty — for every count from 1 to 9: the shards'
// position sets partition the plan exactly, their sizes are
// a ShardSet's Owned, each is one contiguous run of the (earliest Start, first
// fault's content, position) order with shard 0 the earliest, and
// Execute runs exactly its shard's set.
func TestShardPartition(t *testing.T) {
	for _, u := range generatedUniverses() {
		for _, dedup := range []bool{false, true} {
			up := newUniversePlan(u.scenarios, dedup, nil)
			plan := up.bind(u.scenarios)
			n := plan.len()
			if dedup && u.folds && n == len(u.scenarios) {
				t.Fatalf("%s: dedup folds nothing", u.name)
			}
			before := func(a, b int) bool {
				sa, fa := partitionKey(plan.scenario(a))
				sb, fb := partitionKey(plan.scenario(b))
				return cmp.Or(cmp.Compare(sa, sb), compareContent(&fa, &fb), cmp.Compare(a, b)) < 0
			}
			for count := 1; count <= 9; count++ {
				name := fmt.Sprintf("%s/dedup=%v/count=%d", u.name, dedup, count)
				owner, _ := up.cut(u.scenarios, count)
				sizes := shardSizes(u.scenarios, dedup, count)
				got := make([]int, count)
				for _, s := range owner {
					if s < 0 || s >= count {
						t.Fatalf("%s: owner %d out of range", name, s)
					}
					got[s]++
				}
				if len(owner) != n || !reflect.DeepEqual(got, sizes) {
					t.Fatalf("%s: %d positions, shard sizes %v, want %d positions, Owned %v", name, len(owner), got, n, sizes)
				}
				for a := range owner {
					for b := range owner {
						if owner[a] < owner[b] && !before(a, b) {
							t.Fatalf("%s: position %d (shard %d) sorts after position %d (shard %d)", name, a, owner[a], b, owner[b])
						}
					}
				}
				for s := 0; s < count; s++ {
					var ran []int
					c := Campaign{Name: "p", Dedup: dedup, Shard: Shard{Index: s, Count: count}, Run: func(sc fault.Scenario) fault.Outcome {
						return fault.Outcome{Scenario: sc, Class: fault.Masked}
					}}
					res, err := c.Execute(u.scenarios)
					if err != nil {
						t.Fatal(err)
					}
					for _, o := range res.Outcomes {
						if i := slices.IndexFunc(u.scenarios, func(sc fault.Scenario) bool { return sc.ID == o.Scenario.ID }); i >= 0 {
							if p, ok := plan.position(i); ok {
								ran = append(ran, p)
							}
						}
					}
					var want []int
					for p, o := range owner {
						if o == s {
							want = append(want, p)
						}
					}
					if !slices.Equal(ran, want) {
						t.Fatalf("%s: shard %d ran positions %v, owns %v", name, s, ran, want)
					}
				}
			}
		}
	}
	for _, good := range []string{"0/1", "0/4", "3/4"} {
		sh, err := ParseShard(good)
		if err != nil {
			t.Fatalf("ParseShard(%q): %v", good, err)
		}
		if sh.String() != good {
			t.Fatalf("ParseShard(%q).String() = %q", good, sh.String())
		}
	}
	for _, bad := range []string{"", "3", "4/4", "-1/4", "0/0", "a/b", "1/2/3"} {
		if _, err := ParseShard(bad); err == nil {
			t.Fatalf("ParseShard(%q) accepted", bad)
		}
	}
}

func TestUniverseHash(t *testing.T) {
	a := makeScenarios(8)
	b := makeScenarios(8)
	if UniverseHash(a) != UniverseHash(b) {
		t.Fatal("hash not stable across identical universes")
	}
	b[3].Faults[0].Param = 0.25
	if UniverseHash(a) == UniverseHash(b) {
		t.Fatal("hash ignores fault content")
	}
	c := makeScenarios(8)
	c[0], c[1] = c[1], c[0]
	if UniverseHash(a) == UniverseHash(c) {
		t.Fatal("hash ignores scenario order")
	}
}

// shardHeader builds the journal header for one shard of a campaign.
func shardHeader(name string, s Shard, scenarios []fault.Scenario) journal.Header {
	return s.JournalHeader(name, len(scenarios), UniverseHash(scenarios))
}

// TestJournalHeaderOfAList pins Shard.JournalHeader and
// Campaign.JournalHeader for a scenario list against literals: capsim,
// the daemon, the stressortest matrix, resumeEntries, the fabric
// coordinator and a worker's resume prefix all take the header from
// them, so a wrong field there would be self-consistent everywhere
// else.
func TestJournalHeaderOfAList(t *testing.T) {
	for _, tc := range []struct {
		shard Shard
		want  journal.Header
	}{
		{Shard{}, journal.Header{Campaign: "s", Shard: 0, Shards: 1, Total: 7, Universe: "u"}},
		{Shard{Index: 0, Count: 1}, journal.Header{Campaign: "s", Shard: 0, Shards: 1, Total: 7, Universe: "u"}},
		{Shard{Index: 2, Count: 4}, journal.Header{Campaign: "s", Shard: 2, Shards: 4, Partition: journal.PartitionInjectionTime, Total: 7, Universe: "u"}},
	} {
		if got := tc.shard.JournalHeader("s", 7, "u"); got != tc.want {
			t.Errorf("Shard %+v: JournalHeader = %+v, want %+v", tc.shard, got, tc.want)
		}
	}

	scenarios := dedupScenarios(12, 5) // duplicates: Total is the list's size, not the unique runs'
	want := journal.Header{
		Campaign: "hdr", Shard: 1, Shards: 3, Partition: journal.PartitionInjectionTime,
		Total: 12, Universe: UniverseHash(scenarios), Adaptive: false,
	}
	c := Campaign{Name: "hdr", Shard: Shard{Index: 1, Count: 3}, Dedup: true, MaxRuns: 99, Fingerprint: "ignored"}
	if got := c.JournalHeader(scenarios); got != want {
		t.Errorf("sharded list: JournalHeader = %+v, want %+v", got, want)
	}
	want.Shard, want.Shards, want.Partition = 0, 1, ""
	c.Shard = Shard{}
	if got := c.JournalHeader(scenarios); got != want {
		t.Errorf("unsharded list: JournalHeader = %+v, want %+v", got, want)
	}
}

// executeShards runs tmpl once per shard, each with its own journal,
// then reads the journals back and merges them.
func executeShards(t *testing.T, tmpl Campaign, scenarios []fault.Scenario, shards int) (*Result, []*journal.Journal) {
	t.Helper()
	dir := t.TempDir()
	js := make([]*journal.Journal, shards)
	for s := 0; s < shards; s++ {
		sh := Shard{Index: s, Count: shards}
		path := filepath.Join(dir, fmt.Sprintf("shard%d.journal", s))
		w, err := journal.Create(path, shardHeader(tmpl.Name, sh, scenarios))
		if err != nil {
			t.Fatal(err)
		}
		c := tmpl
		c.Shard = sh
		c.Journal = w
		if _, err := c.Execute(scenarios); err != nil {
			t.Fatalf("shard %d/%d: %v", s, shards, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if js[s], err = journal.Read(path); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := Merge(MergeSpec{StopOnFirst: tmpl.StopOnFirst, Dedup: tmpl.Dedup}, scenarios, js)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return merged, js
}

// TestCampaignShardMergeMatrix is the synthetic core of the tentpole
// guarantee: for failure patterns (none, mid, first, panic), both
// StopOnFirst modes, 2 and 4 shards, and sequential/parallel workers,
// the merged shard set is byte-identical to the unsharded sequential
// run.
func TestCampaignShardMergeMatrix(t *testing.T) {
	const n = 20
	runs := map[string]RunFunc{
		"no failures": classRunFunc(pattern(n, nil)),
		"failure mid": classRunFunc(pattern(n, map[int]fault.Classification{7: fault.SDC})),
		"failure first": classRunFunc(pattern(n, map[int]fault.Classification{
			0: fault.SafetyCritical, 13: fault.SDC,
		})),
		"panic": func(sc fault.Scenario) fault.Outcome {
			if sc.ID == "s6" {
				panic("injector exploded")
			}
			return fault.Outcome{Scenario: sc, Class: fault.Masked, Detail: "ran " + sc.ID}
		},
	}
	scenarios := makeScenarios(n)
	for name, run := range runs {
		for _, stop := range []bool{false, true} {
			baseline, err := (&Campaign{Name: "mx", Run: run, StopOnFirst: stop}).Execute(scenarios)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 4} {
				for _, workers := range []int{0, 3} {
					t.Run(fmt.Sprintf("%s/stop=%v/shards=%d/workers=%d", name, stop, shards, workers), func(t *testing.T) {
						tmpl := Campaign{Name: "mx", Run: run, StopOnFirst: stop, Workers: workers}
						merged, _ := executeShards(t, tmpl, scenarios, shards)
						if !reflect.DeepEqual(merged, baseline) {
							t.Errorf("merged result diverged\ngot:  %+v\nwant: %+v", merged, baseline)
						}
					})
				}
			}
		}
	}
}

// TestCampaignEmptyShard: a shard owning no positions (more shards
// than unique runs) completes with an empty result and an entry-less
// journal, and the merge still reproduces the baseline.
func TestCampaignEmptyShard(t *testing.T) {
	scenarios := makeScenarios(3)
	run := classRunFunc(pattern(3, nil))
	res, err := (&Campaign{Name: "e", Run: run, Shard: Shard{Index: 5, Count: 8}}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 0 || res.Tally.Total() != 0 {
		t.Fatalf("empty shard produced %d outcomes", len(res.Outcomes))
	}
	baseline, err := (&Campaign{Name: "e", Run: run}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	merged, js := executeShards(t, Campaign{Name: "e", Run: run}, scenarios, 8)
	if !reflect.DeepEqual(merged, baseline) {
		t.Errorf("8-shard merge of 3 scenarios diverged from baseline")
	}
	for s := 3; s < 8; s++ {
		if len(js[s].Entries) != 0 {
			t.Errorf("shard %d journaled %d entries for no positions", s, len(js[s].Entries))
		}
	}
}

// TestCampaignStopOnFirstShardPlacement: the cross-shard StopOnFirst
// rule must hold wherever the failure lands — in shard 0's territory
// or shard N-1's.
func TestCampaignStopOnFirstShardPlacement(t *testing.T) {
	const n = 8
	for _, failAt := range []int{2, 6} { // positions owned by shard 0 and shard 1 of 2
		run := classRunFunc(pattern(n, map[int]fault.Classification{failAt: fault.SDC}))
		scenarios := makeScenarios(n)
		baseline, err := (&Campaign{Name: "sp", Run: run, StopOnFirst: true}).Execute(scenarios)
		if err != nil {
			t.Fatal(err)
		}
		if baseline.RunsToFirstFailure != failAt+1 {
			t.Fatalf("baseline first failure at %d, want %d", baseline.RunsToFirstFailure, failAt+1)
		}
		merged, _ := executeShards(t, Campaign{Name: "sp", Run: run, StopOnFirst: true}, scenarios, 2)
		if !reflect.DeepEqual(merged, baseline) {
			t.Errorf("failAt=%d: merged StopOnFirst result diverged\ngot:  %+v\nwant: %+v", failAt, merged, baseline)
		}
	}
}

// TestCampaignDedupShardsUniquePartition: dedup must run before the
// partition — shards split the k unique runs (executing k simulations
// in total across all shards), journal only representative indices,
// and the merge reconstructs every duplicate.
func TestCampaignDedupShardsUniquePartition(t *testing.T) {
	const n, k, shards = 12, 3, 2
	scs := dedupScenarios(n, k)
	byBit := map[uint]fault.Classification{2: fault.DetectedSafe}
	var refCalls int32
	baseline, err := (&Campaign{Name: "ds", Run: contentRunFunc(byBit, &refCalls), Dedup: true}).Execute(scs)
	if err != nil {
		t.Fatal(err)
	}
	var calls int32
	tmpl := Campaign{Name: "ds", Run: contentRunFunc(byBit, &calls), Dedup: true}
	merged, js := executeShards(t, tmpl, scs, shards)
	if calls != k {
		t.Errorf("shards together ran %d simulations, want %d uniques", calls, k)
	}
	if !reflect.DeepEqual(merged, baseline) {
		t.Errorf("dedup+shard merge diverged\ngot:  %+v\nwant: %+v", merged, baseline)
	}
	if merged.DedupSavedRuns != n-k {
		t.Errorf("DedupSavedRuns = %d, want %d", merged.DedupSavedRuns, n-k)
	}
	total := 0
	for _, j := range js {
		for _, ent := range j.Entries {
			if ent.Index >= k { // representatives are the first occurrence of each bit
				t.Errorf("journal records non-representative index %d", ent.Index)
			}
		}
		total += len(j.Entries)
	}
	if total != k {
		t.Errorf("journals hold %d entries, want %d", total, k)
	}
}

// TestCampaignResumeCompletedJournal: resuming against a journal that
// already covers the whole campaign executes nothing and reproduces
// the original result exactly.
func TestCampaignResumeCompletedJournal(t *testing.T) {
	const n = 10
	scenarios := makeScenarios(n)
	classes := pattern(n, map[int]fault.Classification{4: fault.SDC})
	path := filepath.Join(t.TempDir(), "j.journal")
	h := shardHeader("rc", Shard{}, scenarios)
	w, err := journal.Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	var calls int32
	run := func(sc fault.Scenario) fault.Outcome {
		atomic.AddInt32(&calls, 1)
		return classRunFunc(classes)(sc)
	}
	baseline, err := (&Campaign{Name: "rc", Run: run, Journal: w}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	j, w2, err := journal.AppendTo(path, h)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	calls = 0
	reg := obs.NewRegistry()
	res, err := (&Campaign{Name: "rc", Run: run, Journal: w2, Resume: j, Metrics: reg}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("resume of a complete journal executed %d runs", calls)
	}
	if w2.Appends() != 0 {
		t.Errorf("resume of a complete journal appended %d entries", w2.Appends())
	}
	if !reflect.DeepEqual(res, baseline) {
		t.Errorf("resumed result diverged\ngot:  %+v\nwant: %+v", res, baseline)
	}
	if got := reg.Counter("campaign.resumed_skips", obs.L("campaign", "rc")).Value(); got != n {
		t.Errorf("resumed_skips = %d, want %d", got, n)
	}
}

// TestCampaignResumeAfterHalt: a campaign halted mid-flight (the
// SIGINT path) resumes from its journal and finishes with the exact
// result an uninterrupted run produces, for sequential and parallel
// execution.
func TestCampaignResumeAfterHalt(t *testing.T) {
	const n, haltAfter = 14, 4
	scenarios := makeScenarios(n)
	run := classRunFunc(pattern(n, map[int]fault.Classification{9: fault.SDC}))
	baseline, err := (&Campaign{Name: "rh", Run: run}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.journal")
			h := shardHeader("rh", Shard{}, scenarios)
			w, err := journal.Create(path, h)
			if err != nil {
				t.Fatal(err)
			}
			c := &Campaign{
				Name: "rh", Run: run, Workers: workers, Journal: w,
				Halt: func(completed int) bool { return completed >= haltAfter },
			}
			partial, err := c.Execute(scenarios)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if len(partial.Outcomes) >= n {
				t.Fatalf("halt did not interrupt: %d outcomes", len(partial.Outcomes))
			}
			j, w2, err := journal.AppendTo(path, h)
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if len(j.Entries) == 0 {
				t.Fatal("halted campaign journaled nothing")
			}
			res, err := (&Campaign{Name: "rh", Run: run, Workers: workers, Journal: w2, Resume: j}).Execute(scenarios)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, baseline) {
				t.Errorf("resumed result diverged\ngot:  %+v\nwant: %+v", res, baseline)
			}
			if len(j.Entries)+w2.Appends() != n {
				t.Errorf("journal covers %d+%d runs, want %d", len(j.Entries), w2.Appends(), n)
			}
		})
	}
}

// TestCampaignShardResumeMerge: one shard of a set is interrupted,
// resumed to completion, and the merged set still matches the
// unsharded baseline — the full tentpole flow in miniature.
func TestCampaignShardResumeMerge(t *testing.T) {
	const n, shards = 20, 2
	scenarios := makeScenarios(n)
	run := classRunFunc(pattern(n, map[int]fault.Classification{11: fault.TimingViolation}))
	baseline, err := (&Campaign{Name: "srm", Run: run}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	js := make([]*journal.Journal, shards)
	for s := 0; s < shards; s++ {
		sh := Shard{Index: s, Count: shards}
		h := shardHeader("srm", sh, scenarios)
		path := filepath.Join(dir, fmt.Sprintf("s%d.journal", s))
		w, err := journal.Create(path, h)
		if err != nil {
			t.Fatal(err)
		}
		c := &Campaign{Name: "srm", Run: run, Shard: sh, Journal: w}
		if s == 0 { // interrupt shard 0 after three runs
			c.Halt = func(completed int) bool { return completed >= 3 }
		}
		if _, err := c.Execute(scenarios); err != nil {
			t.Fatal(err)
		}
		w.Close()
		if s == 0 { // ...and resume it to completion
			j, w2, err := journal.AppendTo(path, h)
			if err != nil {
				t.Fatal(err)
			}
			c := &Campaign{Name: "srm", Run: run, Shard: sh, Journal: w2, Resume: j}
			if _, err := c.Execute(scenarios); err != nil {
				t.Fatal(err)
			}
			w2.Close()
		}
		if js[s], err = journal.Read(path); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := Merge(MergeSpec{}, scenarios, js)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, baseline) {
		t.Errorf("shard+resume+merge diverged\ngot:  %+v\nwant: %+v", merged, baseline)
	}
}

// TestCampaignScenarioTimeout: a hung scenario classifies as timeout
// (with the budget in the detail), the campaign completes everything
// else, StopOnFirst ignores it, the timeout counter records it, and
// the journal carries it for resume.
func TestCampaignScenarioTimeout(t *testing.T) {
	const n = 6
	block := make(chan struct{})
	defer close(block)
	run := func(sc fault.Scenario) fault.Outcome {
		if sc.ID == "s2" {
			<-block // hangs until the test ends
		}
		return fault.Outcome{Scenario: sc, Class: fault.Masked, Detail: "ran " + sc.ID}
	}
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			scenarios := makeScenarios(n)
			path := filepath.Join(t.TempDir(), "j.journal")
			w, err := journal.Create(path, shardHeader("to", Shard{}, scenarios))
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			c := &Campaign{
				Name: "to", Run: run, Workers: workers, StopOnFirst: true,
				ScenarioTimeout: 50 * time.Millisecond, Journal: w, Metrics: reg,
			}
			res, err := c.Execute(scenarios)
			if err != nil {
				t.Fatal(err)
			}
			w.Close()
			if len(res.Outcomes) != n {
				t.Fatalf("campaign did not complete past the timeout: %d of %d outcomes", len(res.Outcomes), n)
			}
			o := res.Outcomes[2]
			if o.Class != fault.Timeout || !strings.Contains(o.Detail, "wall-clock budget") {
				t.Errorf("timed-out outcome = %+v", o)
			}
			if res.Tally[fault.Timeout] != 1 || res.Tally[fault.Masked] != n-1 {
				t.Errorf("tally = %v", res.Tally)
			}
			if got := reg.Counter("campaign.timeouts", obs.L("campaign", "to")).Value(); got != 1 {
				t.Errorf("timeouts counter = %d, want 1", got)
			}
			j, err := journal.Read(path)
			if err != nil {
				t.Fatal(err)
			}
			journaled := ""
			for _, ent := range j.Entries {
				if ent.Index == 2 {
					journaled = ent.Class
				}
			}
			if journaled != fault.Timeout.String() {
				t.Errorf("journaled class = %q, want timeout", journaled)
			}
		})
	}
}

// TestCampaignResumeRejects: a journal from the wrong campaign, wrong
// shard, wrong universe, the adaptive engine, or with entries that
// contradict the universe must fail before any run executes. The
// entry-level refusals are the one list replay's, so Merge refuses the
// same journal, as a one-shard set, in the resume error's own words.
func TestCampaignResumeRejects(t *testing.T) {
	scenarios := makeScenarios(6)
	run := classRunFunc(pattern(6, nil))
	mkJournal := func(h journal.Header, entries ...journal.Entry) *journal.Journal {
		t.Helper()
		j, err := journal.DecodeBytes(binaryJournal(t, h, entries...))
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	good := shardHeader("rr", Shard{}, scenarios)
	cases := []struct {
		name string
		c    Campaign
		j    *journal.Journal
	}{
		{"wrong campaign", Campaign{Name: "rr"}, mkJournal(journal.Header{
			Campaign: "other", Shards: 1, Total: 6, Universe: good.Universe})},
		{"wrong shard", Campaign{Name: "rr"}, mkJournal(journal.Header{
			Campaign: "rr", Shard: 1, Shards: 2, Total: 6, Universe: good.Universe})},
		{"wrong universe", Campaign{Name: "rr"}, mkJournal(journal.Header{
			Campaign: "rr", Shards: 1, Total: 6, Universe: "0000000000000000"})},
		// An adaptive journal whose budget equals the universe size
		// passes every other header check, and its proposal sequence
		// numbers may exceed Total — an unchecked universe index.
		{"adaptive journal", Campaign{Name: "rr"}, mkJournal(journal.Header{
			Campaign: "rr", Shards: 1, Total: 6, Universe: good.Universe, Adaptive: true},
			journal.Entry{Index: 9, ID: "s9", Class: "masked"})},
	}
	var calls int32
	counting := func(sc fault.Scenario) fault.Outcome {
		atomic.AddInt32(&calls, 1)
		return run(sc)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls = 0
			c := tc.c
			c.Run, c.Resume = counting, tc.j
			if _, err := c.Execute(scenarios); err == nil {
				t.Fatal("mismatched journal accepted")
			}
			if calls != 0 {
				t.Errorf("%d runs executed before the journal was rejected", calls)
			}
		})
	}

	// A journal written without dedup cannot resume a dedup campaign:
	// its entries sit at non-representative indices.
	scs := dedupScenarios(6, 2)
	entryCases := []struct {
		name      string
		dedup     bool
		scenarios []fault.Scenario
		entries   []journal.Entry
	}{
		{"wrong scenario ID", false, scenarios, []journal.Entry{
			{Index: 0, ID: "not-s0", Class: "masked"}}},
		{"unknown class", false, scenarios, []journal.Entry{
			{Index: 0, ID: "s0", Class: "exploded"}}},
		{"conflicting duplicate", false, scenarios, []journal.Entry{
			{Index: 2, ID: "s2", Class: "masked", Detail: "ran s2"},
			{Index: 2, ID: "s2", Class: "masked", Detail: "ran s2", Panicked: true}}},
		{"non-representative under dedup", true, scs, []journal.Entry{
			{Index: 3, ID: "d3", Class: "masked"}}},
	}
	for _, tc := range entryCases {
		t.Run(tc.name, func(t *testing.T) {
			calls = 0
			j := mkJournal(shardHeader("rr", Shard{}, tc.scenarios), tc.entries...)
			c := Campaign{Name: "rr", Run: counting, Dedup: tc.dedup, Resume: j}
			_, rerr := c.Execute(tc.scenarios)
			if rerr == nil {
				t.Fatal("resume accepted the journal")
			}
			if calls != 0 {
				t.Errorf("%d runs executed before the journal was rejected", calls)
			}
			_, merr := Merge(MergeSpec{Dedup: tc.dedup}, tc.scenarios, []*journal.Journal{j})
			if merr == nil || !strings.Contains(merr.Error(), rerr.Error()) {
				t.Errorf("merge error %v does not carry the resume error %q", merr, rerr)
			}
		})
	}
}

// TestMergeRejects: merging must refuse truncated journals, missing
// shards, duplicate shards, foreign universes, adaptive journals,
// incomplete coverage and conflicting outcomes.
func TestMergeRejects(t *testing.T) {
	const n, shards = 8, 2
	scenarios := makeScenarios(n)
	run := classRunFunc(pattern(n, nil))
	_, js := executeShards(t, Campaign{Name: "mr", Run: run}, scenarios, shards)

	if _, err := Merge(MergeSpec{}, scenarios, nil); err == nil {
		t.Error("merge of zero journals accepted")
	}
	if _, err := Merge(MergeSpec{}, scenarios, js[:1]); err == nil {
		t.Error("missing shard accepted")
	}
	if _, err := Merge(MergeSpec{}, scenarios, []*journal.Journal{js[0], js[0]}); err == nil {
		t.Error("duplicate shard accepted")
	}
	// A header's shard count is refused against the set before it sizes
	// anything: 1<<40 shards must be an error, not an out-of-memory
	// crash.
	huge := *js[0]
	huge.Header.Shards = 1 << 40
	if _, err := Merge(MergeSpec{}, scenarios, []*journal.Journal{&huge, js[1]}); err == nil || !strings.Contains(err.Error(), "2 journals for a 1099511627776-shard set") {
		t.Errorf("1<<40-shard header: want a journal-count error, got %v", err)
	}
	trunc := *js[1]
	trunc.Truncated = true
	if _, err := Merge(MergeSpec{}, scenarios, []*journal.Journal{js[0], &trunc}); err == nil {
		t.Error("truncated journal accepted")
	}
	if _, err := Merge(MergeSpec{}, makeScenarios(n+1), js); err == nil {
		t.Error("foreign universe accepted")
	}
	// An adaptive journal budgeted to the universe size matches every
	// header field Merge compares, yet indexes proposals, not scenarios:
	// entry 5 of a 2-scenario universe must be an error, not a panic.
	two := makeScenarios(2)
	adaptive := &journal.Journal{
		Header: journal.Header{
			FormatMarker: journal.Format, Campaign: "mr", Shards: 1,
			Total: 2, Universe: UniverseHash(two), Adaptive: true,
		},
		Entries: []journal.Entry{{Index: 5, ID: "s5", Class: "masked"}},
	}
	if _, err := Merge(MergeSpec{}, two, []*journal.Journal{adaptive}); err == nil || !strings.Contains(err.Error(), "adaptive") {
		t.Errorf("adaptive journal: want an adaptive-journal error, got %v", err)
	}
	// Incomplete coverage: drop one entry from shard 1.
	short := *js[1]
	short.Entries = short.Entries[:len(short.Entries)-1]
	if _, err := Merge(MergeSpec{}, scenarios, []*journal.Journal{js[0], &short}); err == nil {
		t.Error("incomplete shard accepted")
	}
	// Conflict: shard 1 re-records shard 0's scenario with another class.
	conflict := *js[1]
	conflict.Entries = append(append([]journal.Entry{}, conflict.Entries...),
		journal.Entry{Index: 0, ID: "s0", Class: "sdc", Detail: "ran s0"})
	if _, err := Merge(MergeSpec{}, scenarios, []*journal.Journal{js[0], &conflict}); err == nil {
		t.Error("conflicting outcomes accepted")
	}
}
