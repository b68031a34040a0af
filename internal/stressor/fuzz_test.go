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
// store. Both inputs are decoded as shard journals over the toy
// universe, and whichever decode are merged as one set, with and
// without Dedup. Invariants: Merge never panics or crashes the process
// (a header's shard count must not size an allocation), and an accepted
// merge holds one outcome per scenario, in universe order.
func FuzzMergeJournals(f *testing.F) {
	universe := fuzzUniverse()
	headers := make([]journal.Header, 2)
	entries := make([][]journal.Entry, 2)
	for s := range headers {
		sh := Shard{Index: s, Count: 2}
		headers[s] = shardHeader("fz", sh, universe)
		sink := &entrySink{}
		c := Campaign{Name: "fz", Run: fuzzRun, Shard: sh, Journal: sink}
		if _, err := c.Execute(universe); err != nil {
			f.Fatal(err)
		}
		entries[s] = *sink
	}
	bin0 := binaryJournal(f, headers[0], entries[0]...)
	bin1 := binaryJournal(f, headers[1], entries[1]...)
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
			if err != nil {
				continue
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
