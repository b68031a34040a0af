package stressor

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/journal"
)

// fuzzUniverse is FuzzMergeJournals' toy universe: eight scenarios
// whose fault content repeats every four, so Dedup folds d4..d7 into
// d0..d3.
func fuzzUniverse() []fault.Scenario { return dedupScenarios(8, 4) }

// fuzzRun fails d5 and masks the rest of the toy universe.
func fuzzRun(sc fault.Scenario) fault.Outcome {
	cls := fault.Masked
	if sc.ID == "d5" {
		cls = fault.SDC
	}
	return fault.Outcome{Scenario: sc, Class: cls, Detail: "ran " + sc.ID}
}

// entrySink collects what a campaign journals.
type entrySink []journal.Entry

func (s *entrySink) Append(e journal.Entry) error {
	*s = append(*s, e)
	return nil
}

// binaryJournal is a journal with header h and entries as the engine's
// writer lays it out on disk.
func binaryJournal(tb testing.TB, h journal.Header, entries ...journal.Entry) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "j.journal")
	w, err := journal.Create(path, h)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		if err := w.Append(e); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// jsonlJournal spells the same journal in JSONL, the codec an older
// build wrote and every reader still accepts.
func jsonlJournal(h journal.Header, entries ...journal.Entry) []byte {
	h.FormatMarker = journal.Format
	line, _ := json.Marshal(h)
	data := append(line, '\n')
	for _, e := range entries {
		line, _ = json.Marshal(e)
		data = append(append(data, line...), '\n')
	}
	return data
}

// FuzzMergeJournals throws arbitrary bytes at the merge consumer — what
// campmerge reads from user-supplied files and POST /merge from the
// store — and at the shard set a restarted fabric coordinator adopts its
// journals into. Both inputs are decoded as shard journals over the toy
// universe, and whichever decode are merged as one set, with and
// without Dedup, and added to one fresh ShardSet shard by shard.
// Invariants: neither panics or crashes the process (a header's shard
// count must not size an allocation); an accepted merge holds one
// outcome per scenario, in universe order; where Merge accepts, the
// set accepts every journal and its shards' recorded runs sum to the
// merge's unique runs; and a journal the set refuses, Merge refuses.
func FuzzMergeJournals(f *testing.F) {
	universe := fuzzUniverse()
	shardJournals := func(dedup bool) (headers []journal.Header, entries [][]journal.Entry) {
		for s := 0; s < 2; s++ {
			sh := Shard{Index: s, Count: 2}
			sink := &entrySink{}
			c := Campaign{Name: "fz", Run: fuzzRun, Dedup: dedup, Shard: sh, Journal: sink}
			if _, err := c.Execute(universe); err != nil {
				f.Fatal(err)
			}
			headers, entries = append(headers, shardHeader("fz", sh, universe)), append(entries, *sink)
		}
		return headers, entries
	}
	headers, entries := shardJournals(false)
	bin0 := binaryJournal(f, headers[0], entries[0]...)
	bin1 := binaryJournal(f, headers[1], entries[1]...)
	unknown := append([]journal.Entry(nil), entries[0]...)
	unknown[0].Class = "bogus"
	_, folded := shardJournals(true)
	nonRep := append(append([]journal.Entry(nil), folded[0]...), journal.Entry{Index: 5, ID: "d5", Class: "sdc", Detail: "ran d5"})
	adaptive := headers[0]
	adaptive.Shard, adaptive.Shards, adaptive.Partition, adaptive.Adaptive = 0, 1, "", true
	huge := headers[0]
	huge.Shards = 1 << 40

	vectors := []struct {
		name string
		a, b []byte
	}{
		{"binary 2-shard set", bin0, bin1},
		{"JSONL 2-shard set", jsonlJournal(headers[0], entries[0]...), jsonlJournal(headers[1], entries[1]...)},
		{"truncated tail", bin0, bin1[:len(bin1)-3]},
		{"adaptive header", jsonlJournal(adaptive, journal.Entry{Index: 9, ID: "p9", Class: "masked"}), nil},
		{"1<<40-shard header", jsonlJournal(huge, entries[0]...), bin1},
		{"unknown class", binaryJournal(f, headers[0], unknown...), bin1},
		{"non-representative entry under Dedup", binaryJournal(f, headers[0], nonRep...), binaryJournal(f, headers[1], folded[1]...)},
	}
	for _, v := range vectors {
		f.Add(v.a, v.b)
	}

	f.Fuzz(func(t *testing.T, a, b []byte) {
		var js []*journal.Journal
		for _, data := range [][]byte{a, b} {
			if j, err := journal.DecodeBytes(data); err == nil {
				js = append(js, j)
			}
		}
		if len(js) == 0 {
			return
		}
		for _, dedup := range []bool{false, true} {
			res, err := Merge(MergeSpec{Dedup: dedup}, universe, js)
			recorded, refused, added := adopt(universe, dedup, js)
			if refused != nil && err == nil {
				t.Fatalf("dedup=%v: the shard set refused a journal Merge accepts: %v", dedup, refused)
			}
			if err != nil {
				continue
			}
			if !added || refused != nil {
				t.Fatalf("dedup=%v: Merge accepts a set the shard set did not take whole (refused: %v)", dedup, refused)
			}
			if runs := len(universe) - res.DedupSavedRuns; recorded != runs {
				t.Fatalf("dedup=%v: the shards recorded %d runs, the merge has %d", dedup, recorded, runs)
			}
			if len(res.Outcomes) != len(universe) {
				t.Fatalf("dedup=%v: accepted merge has %d outcomes for %d scenarios", dedup, len(res.Outcomes), len(universe))
			}
			for i, o := range res.Outcomes {
				if o.Scenario.ID != universe[i].ID {
					t.Fatalf("dedup=%v: outcome %d is scenario %q, universe has %q", dedup, i, o.Scenario.ID, universe[i].ID)
				}
			}
		}
	})
}

// adopt adds js to one fresh ShardSet of the first header's campaign
// and layout, each journal as the shard its header names, and sums what
// the shards recorded. added is false when the journals do not make up
// such a set — their count or a layout differs, which Merge refuses
// before it sizes anything — and refused is the first Add error.
func adopt(universe []fault.Scenario, dedup bool, js []*journal.Journal) (recorded int, refused error, added bool) {
	h0 := js[0].Header
	if len(js) != h0.Shards {
		return 0, nil, false
	}
	set := NewShardSet(h0.Campaign, universe, dedup, h0.Shards)
	for _, j := range js {
		if j.Header.Shards != h0.Shards {
			return 0, nil, false
		}
		if _, err := set.Add(j.Header.Shard, j.Entries, nil); err != nil {
			return 0, err, true
		}
	}
	for s := 0; s < h0.Shards; s++ {
		recorded += set.Recorded(s)
	}
	return recorded, nil, true
}
