package clitest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaignd"
	"repro/internal/journal"
)

// testdata/roundrobin holds the shard journals capsim wrote, in both
// codecs, while shards were still cut round-robin (position u to shard
// u mod N):
//
//	capsim -campaign e2e -horizon 30ms -workers 1 -shard i/2 -journal shard<i>.<codec> -journal-codec <codec>
//
// Their headers carry no partition rule.
func roundRobinJournal(codec string, shard int) string {
	return filepath.Join("testdata", "roundrobin", fmt.Sprintf("shard%d.%s", shard, codec))
}

// TestRoundRobinShardJournals: a set cut wholly round-robin still
// merges — through campmerge and in process — to the unsharded
// campaign's result, since outcomes are placed by scenario index; a set
// that mixes it with a journal of today's injection-time rule, and a
// resume of a round-robin shard, are refused naming both rules, before
// anything runs.
func TestRoundRobinShardJournals(t *testing.T) {
	dir := t.TempDir()
	capsim, campmerge := Binary(t, "capsim"), Binary(t, "campmerge")
	current := func(t *testing.T, shard int) string {
		path := filepath.Join(dir, fmt.Sprintf("current%d.jsonl", shard))
		if _, err := os.Stat(path); err == nil {
			return path
		}
		args := append(append([]string{}, capsimCampaignArgs...), "-shard", fmt.Sprintf("%d/2", shard), "-journal", path)
		if r := Run(t, nil, capsim, args...); r.Code != 0 {
			t.Fatalf("capsim -shard %d/2: exit %d, stderr:\n%s", shard, r.Code, r.Stderr)
		}
		return path
	}
	namesBothRules := func(stderr string) bool {
		return strings.Contains(stderr, journal.PartitionRoundRobin) && strings.Contains(stderr, journal.PartitionInjectionTime)
	}
	spec := &campaignd.Spec{Universe: campaignd.UniverseSpec{World: "normal", Horizon: "30ms", Inject: "10ms"}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	runner, err := spec.BuildRunner()
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	read := func(t *testing.T, paths ...string) []*journal.Journal {
		js := make([]*journal.Journal, len(paths))
		for i, path := range paths {
			var err error
			if js[i], err = journal.Read(path); err != nil {
				t.Fatal(err)
			}
		}
		return js
	}

	for _, codec := range []string{"jsonl", "binary"} {
		old0, old1 := roundRobinJournal(codec, 0), roundRobinJournal(codec, 1)
		t.Run(codec+"/resume", func(t *testing.T) {
			raw, err := os.ReadFile(old0)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "shard0."+codec)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			args := append(append([]string{}, capsimCampaignArgs...), "-shard", "0/2", "-journal", path, "-resume")
			r := Run(t, nil, capsim, args...)
			if r.Code != 1 || r.Stdout != "" || !namesBothRules(r.Stderr) {
				t.Errorf("resume: exit %d, stdout %q, stderr %q; want exit 1 naming both rules", r.Code, r.Stdout, r.Stderr)
			}
			if after, _ := os.ReadFile(path); string(after) != string(raw) {
				t.Error("the refused journal was written to")
			}
		})
		t.Run(codec+"/merge", func(t *testing.T) {
			want, _, err := spec.Merge(runner, read(t, current(t, 0), current(t, 1)))
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := spec.Merge(runner, read(t, old0, old1))
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("round-robin set: err %v, or merged result differs from the injection-time set's", err)
			}
			var pe *journal.PartitionError
			if _, _, err := spec.Merge(runner, read(t, current(t, 0), old1)); !errors.As(err, &pe) || !namesBothRules(err.Error()) {
				t.Errorf("mixed set: err %v, want a *journal.PartitionError naming both rules", err)
			}
		})
		t.Run(codec+"/campmerge", func(t *testing.T) {
			r := Run(t, nil, campmerge, "-horizon", "30ms", old0, old1)
			if r.Code != 0 {
				t.Fatalf("campmerge of the round-robin set: exit %d, stderr:\n%s", r.Code, r.Stderr)
			}
			Golden(t, "campmerge", r.Stdout)
			r = Run(t, nil, campmerge, "-horizon", "30ms", current(t, 0), old1)
			if r.Code != 1 || r.Stdout != "" || !namesBothRules(r.Stderr) {
				t.Errorf("campmerge of a mixed set: exit %d, stdout %q, stderr %q; want exit 1 naming both rules", r.Code, r.Stdout, r.Stderr)
			}
		})
	}
}
