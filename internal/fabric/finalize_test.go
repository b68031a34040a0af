package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/stressor"
)

// render is a result as the tests compare it: every field, as JSON.
func render(t *testing.T, res *stressor.Result) string {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestFinalizeMatchesMergeFromDisk: a coordinator finalizes from the
// shard set it holds, not from its journals; what two workers' campaign
// leaves it with renders byte for byte as a Merge of every shard
// journal read back from disk, and as the unsharded sequential run — on
// a plain universe, one Dedup folds across shards and one StopOnFirst
// cuts short.
func TestFinalizeMatchesMergeFromDisk(t *testing.T) {
	scenarios := testScenarios(40)
	scenarios[29].Faults = scenarios[3].Faults // folded across shards
	scenarios[31].Faults = scenarios[3].Faults
	run := testRun(map[int]fault.Classification{11: fault.DetectedSafe, 23: fault.SDC, 37: fault.TimingViolation})
	for _, tc := range []struct {
		name        string
		dedup, stop bool
	}{{"plain", false, false}, {"dedup", true, false}, {"stop-on-first", false, true}} {
		dir := t.TempDir()
		c, srv := startCoord(t, CoordConfig{
			Scenarios: scenarios, Shards: 4, Dedup: tc.dedup, StopOnFirst: tc.stop, DataDir: dir,
			LeaseTTL: chaosTTL, StealAfter: chaosSteal,
		})
		res := resolver(scenarios, run)
		runWorkers(t, context.Background(), newChaosWorker(t, "w1", srv.URL, res), newChaosWorker(t, "w2", srv.URL, res))
		got, done, err := c.Result()
		if err != nil || !done {
			t.Fatalf("%s: done=%v err=%v", tc.name, done, err)
		}
		js := make([]*journal.Journal, 4)
		for i := range js {
			if js[i], err = journal.Read(filepath.Join(dir, fmt.Sprintf("shard-%d.journal", i))); err != nil {
				t.Fatal(err)
			}
		}
		merged, err := stressor.Merge(stressor.MergeSpec{Dedup: tc.dedup, StopOnFirst: tc.stop}, scenarios, js)
		if err != nil {
			t.Fatalf("%s: merge from disk: %v", tc.name, err)
		}
		if g, m := render(t, got), render(t, merged); g != m {
			t.Fatalf("%s: finalized from memory\n%s\nmerged from disk\n%s", tc.name, g, m)
		}
		if want := sequentialBaseline(t, "fab", scenarios, run, tc.dedup, tc.stop); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: finalized result\n%s\nsequential\n%s", tc.name, render(t, got), render(t, want))
		}
	}
}

// shardEntries is what a worker running shard s of count journals: the
// entry of every run the shard owns.
func shardEntries(t *testing.T, scenarios []fault.Scenario, run stressor.RunFunc, s, count int) []journal.Entry {
	t.Helper()
	res, err := (&stressor.Campaign{Name: "fab", Run: run, Shard: stressor.Shard{Index: s, Count: count}}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]journal.Entry, len(res.Outcomes))
	for k, o := range res.Outcomes {
		var i int
		fmt.Sscanf(o.Scenario.ID, "s%d", &i)
		entries[k] = entryFor(scenarios, i, o.Class)
	}
	return entries
}

// TestFinalizeVerifiesJournalsOnDisk: finalization reads every sealed
// shard journal back. One byte flipped in shard 0's journal after it
// was sealed, before the last shard completes, fails the campaign with
// a merge error naming shard 0 and no result. A clean finalization
// checks the journals' frames without decoding an entry: the request
// that completes a campaign of n runs allocates far fewer than the n
// strings a decode would.
func TestFinalizeVerifiesJournalsOnDisk(t *testing.T) {
	const n = 2000
	scenarios := make([]fault.Scenario, n) // testScenarios past 64 bits
	for i := range scenarios {
		scenarios[i] = fault.Single(fault.Descriptor{
			Name: fmt.Sprintf("s%d", i), Model: fault.BitFlip, Target: "m", Bit: uint(i % 64), Address: uint64(i / 64),
		})
	}
	run := testRun(nil)
	for _, damaged := range []bool{false, true} {
		dir := t.TempDir()
		c, srv := startCoord(t, CoordConfig{Scenarios: scenarios, Shards: 2, DataDir: dir})
		for s := range 2 {
			g := lease(t, srv.URL, "w")
			if g.Shard != s {
				t.Fatalf("lease %d is shard %d", s, g.Shard)
			}
			entries := shardEntries(t, scenarios, run, s, 2)
			if code := flush(t, srv.URL, s, flushReq{Worker: "w", Attempt: g.Attempt, Entries: entries, Done: s == 0}); code != http.StatusOK {
				t.Fatalf("shard %d flush: HTTP %d", s, code)
			}
			if s == 1 {
				break
			}
			if damaged {
				path := filepath.Join(dir, "shard-0.journal")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0x10
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		// The request that seals the last shard carries no entries, so
		// what it allocates is its own handling and the finalization.
		req := httptest.NewRequest(http.MethodPost, flushURL("", 1, flushReq{Worker: "w", Attempt: 1, Done: true}), nil)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("damaged=%v: sealing flush: HTTP %d: %s", damaged, rec.Code, rec.Body)
		}
		res, done, err := c.Result()
		if !done {
			t.Fatalf("damaged=%v: not finalized", damaged)
		}
		if damaged {
			if err == nil || res != nil || !strings.Contains(err.Error(), "shard 0 journal") {
				t.Fatalf("damaged journal: result %v, error %v; want no result and an error naming shard 0", res, err)
			}
			continue
		}
		if err != nil || len(res.Outcomes) != n {
			t.Fatalf("clean finalize: %v, %d outcomes", err, len(res.Outcomes))
		}
		allocs := after.Mallocs - before.Mallocs
		t.Logf("the finalizing request allocated %d times", allocs)
		if allocs > n/8 {
			t.Errorf("the finalizing request allocated %d times for %d journaled runs: were the journals decoded?", allocs, n)
		}
	}
}
