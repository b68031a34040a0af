package stressor

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/journal"
)

// distinctScenarios builds n scenarios with distinct fault content
// (makeScenarios varies only the Name, which dedup ignores).
func distinctScenarios(n int) []fault.Scenario {
	out := make([]fault.Scenario, n)
	for i := range out {
		out[i] = fault.Single(fault.Descriptor{
			Name: fmt.Sprintf("s%d", i), Model: fault.BitFlip, Target: "m", Bit: uint(i),
		})
	}
	return out
}

// TestShardSizes pins the exported shard-sizing helper against the
// engine's own partition: the size it reports for a shard is the number
// of entries that shard journals.
func TestShardSizes(t *testing.T) {
	scenarios := distinctScenarios(11)
	// Make s3/s7 duplicates of s1 so dedup collapses them.
	scenarios[3].Faults = scenarios[1].Faults
	scenarios[7].Faults = scenarios[1].Faults
	for _, dedup := range []bool{false, true} {
		for _, shards := range []int{1, 2, 3} {
			sizes := ShardSizes(scenarios, dedup, shards)
			if len(sizes) != shards {
				t.Fatalf("dedup=%v shards=%d: %d sizes", dedup, shards, len(sizes))
			}
			total := 0
			for i, size := range sizes {
				total += size
				// Cross-check against the journal the engine writes.
				sh := Shard{Index: i, Count: shards}
				path := filepath.Join(t.TempDir(), "j.journal")
				w, err := journal.Create(path, shardHeader("own", sh, scenarios))
				if err != nil {
					t.Fatal(err)
				}
				c := Campaign{Name: "own", Run: classRunFunc(pattern(len(scenarios), nil)), Dedup: dedup, Shard: sh, Journal: w}
				if _, err := c.Execute(scenarios); err != nil {
					t.Fatal(err)
				}
				w.Close()
				j, err := journal.Read(path)
				if err != nil {
					t.Fatal(err)
				}
				if size != len(j.Entries) {
					t.Fatalf("dedup=%v shard %d/%d: ShardSizes %d, journal has %d entries", dedup, i, shards, size, len(j.Entries))
				}
			}
			wantTotal := len(scenarios)
			if dedup {
				wantTotal -= 2
			}
			if total != wantTotal {
				t.Fatalf("dedup=%v shards=%d: %d runs across shards, want %d", dedup, shards, total, wantTotal)
			}
		}
	}
	// A non-positive count is one unsharded campaign.
	if got := ShardSizes(scenarios, false, 0); len(got) != 1 || got[0] != len(scenarios) {
		t.Fatalf("zero count sizes %v, want [%d]", got, len(scenarios))
	}
}

// TestMergeMixedCodecs is the heterogeneous-encoding contract: a merge
// set where one shard journaled binary and the other JSONL produces a
// Result identical to the all-JSONL merge and to the unsharded run —
// the codec is a file-format fact, never a semantic one. A JSONL shard
// is what an older build started and this one finished: a header line
// on disk, which AppendTo carries on in.
func TestMergeMixedCodecs(t *testing.T) {
	const n, shards = 20, 2
	scenarios := distinctScenarios(n)
	scenarios[9].Faults = scenarios[2].Faults // dedup fold crossing shards
	tmpl := Campaign{
		Name: "mixed", Dedup: true,
		Run: classRunFunc(pattern(n, map[int]fault.Classification{11: fault.SDC})),
	}
	baseline, err := (&Campaign{Name: tmpl.Name, Dedup: tmpl.Dedup, Run: tmpl.Run}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}

	runShards := func(codecs []journal.Codec) []*journal.Journal {
		dir := t.TempDir()
		js := make([]*journal.Journal, shards)
		for s := 0; s < shards; s++ {
			sh := Shard{Index: s, Count: shards}
			path := filepath.Join(dir, fmt.Sprintf("shard%d.j", s))
			h := shardHeader(tmpl.Name, sh, scenarios)
			var w *journal.Writer
			var err error
			if codecs[s] == journal.JSONL {
				h.FormatMarker = journal.Format
				line, _ := json.Marshal(h)
				if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				_, w, err = journal.AppendTo(path, h)
			} else {
				w, err = journal.Create(path, h)
			}
			if err != nil {
				t.Fatal(err)
			}
			c := tmpl
			c.Shard = sh
			c.Journal = w
			if _, err := c.Execute(scenarios); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if js[s], err = journal.Read(path); err != nil {
				t.Fatal(err)
			}
			if js[s].Codec != codecs[s] {
				t.Fatalf("shard %d sniffed as %q, wrote %q", s, js[s].Codec, codecs[s])
			}
		}
		return js
	}

	jsonlOnly := runShards([]journal.Codec{journal.JSONL, journal.JSONL})
	mixed := runShards([]journal.Codec{journal.Binary, journal.JSONL})
	spec := MergeSpec{Dedup: tmpl.Dedup}
	ref, err := Merge(spec, scenarios, jsonlOnly)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Merge(spec, scenarios, mixed)
	if err != nil {
		t.Fatalf("mixed-codec merge: %v", err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("mixed-codec merge differs from all-JSONL merge:\n%+v\n%+v", got, ref)
	}
	if !reflect.DeepEqual(got, baseline) {
		t.Fatalf("mixed-codec merge differs from unsharded run:\n%+v\n%+v", got, baseline)
	}
}
