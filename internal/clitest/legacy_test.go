package clitest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/journal"
)

// testdata/legacy holds the shard journals capsim wrote while JSONL was
// still its default encoding:
//
//	capsim -campaign e2e -horizon 30ms -workers 1 -shard i/2 -journal shard<i>.jsonl -journal-codec jsonl
//
// Every journal is created binary now; these pin that a JSONL journal
// written before stays a supported input, to merge and to resume.
func legacyJournal(shard string) string {
	return filepath.Join("testdata", "legacy", "shard"+shard+".jsonl")
}

// TestCampmergeMixedCodecsGolden merges a fresh binary shard 0 with the
// legacy JSONL shard 1: campmerge sniffs each file's encoding, so a
// campaign's shards need not agree on one, and the summary is the same
// goldenfile the all-binary merge test asserts against.
func TestCampmergeMixedCodecsGolden(t *testing.T) {
	fresh := filepath.Join(t.TempDir(), "shard0.journal")
	args := append(append([]string{}, capsimCampaignArgs...), "-shard", "0/2", "-journal", fresh)
	if r := Run(t, nil, Binary(t, "capsim"), args...); r.Code != 0 {
		t.Fatalf("capsim shard 0: exit %d, stderr:\n%s", r.Code, r.Stderr)
	}
	if j, err := journal.Read(fresh); err != nil || j.Codec != journal.Binary {
		t.Fatalf("capsim -journal wrote an unreadable or non-binary journal (err %v)", err)
	}
	r := Run(t, nil, Binary(t, "campmerge"), "-horizon", "30ms", fresh, legacyJournal("1"))
	if r.Code != 0 {
		t.Fatalf("campmerge: exit %d, stderr:\n%s", r.Code, r.Stderr)
	}
	Golden(t, "campmerge", r.Stdout)
}

// TestCapsimResumesLegacyJSONL: the legacy JSONL shard 1, cut back to
// its header and first 3 entries as a crash would leave it, resumes
// under capsim -resume to the summary a fresh run of the shard prints,
// and is completed in place — still JSONL, holding every outcome.
func TestCapsimResumesLegacyJSONL(t *testing.T) {
	dir := t.TempDir()
	capsim := Binary(t, "capsim")
	shard := append(append([]string{}, capsimCampaignArgs...), "-shard", "1/2")
	fresh := Run(t, nil, capsim, append(shard, "-journal", filepath.Join(dir, "fresh.journal"))...)
	if fresh.Code != 0 {
		t.Fatalf("fresh capsim -shard 1/2: exit %d, stderr:\n%s", fresh.Code, fresh.Stderr)
	}

	raw, err := os.ReadFile(legacyJournal("1"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	path := filepath.Join(dir, "shard1.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines[:4], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed := Run(t, nil, capsim, append(shard, "-journal", path, "-resume")...)
	if resumed.Code != 0 || resumed.Stdout != fresh.Stdout {
		t.Fatalf("resuming the legacy journal: exit %d, stdout:\n%s\nwant the fresh run's:\n%s\nstderr:\n%s", resumed.Code, resumed.Stdout, fresh.Stdout, resumed.Stderr)
	}
	j, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(lines) - 2; j.Codec != journal.JSONL || len(j.Entries) != want {
		t.Errorf("resumed journal is %s with %d entries, want JSONL with %d", j.Codec, len(j.Entries), want)
	}
}
