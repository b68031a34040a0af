package govp

// End-to-end smoke for the sharded/resumable campaign flow, driving
// the real CLIs exactly as an operator would: run one shard, stop it
// mid-campaign, resume it, run the other shard, merge the journals
// with campmerge and require the merged tally line to match the
// unsharded campaign byte for byte. This is the tier-1 guard for the
// shard → interrupt → resume → merge contract.

import (
	"path/filepath"
	"strings"
	"testing"
)

// tallyLine extracts the "tally:" line from a capsim/campmerge output.
func tallyLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "tally:") {
			return line
		}
	}
	t.Fatalf("no tally line in output:\n%s", out)
	return ""
}

func TestShardResumeMergeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives go run several times")
	}
	args := []string{"-campaign", "smoke", "-horizon", "30ms"}
	golden := tallyLine(t, runMain(t, "./cmd/capsim", args...))

	dir := t.TempDir()
	j0 := filepath.Join(dir, "shard0.journal")
	j1 := filepath.Join(dir, "shard1.journal")

	// Shard 0: interrupt after 3 runs, then resume to completion.
	out := runMain(t, "./cmd/capsim", append(args,
		"-shard", "0/2", "-journal", j0, "-interrupt-after", "3")...)
	if !strings.Contains(out, "halted:") {
		t.Fatalf("interrupted shard did not report halting:\n%s", out)
	}
	out = runMain(t, "./cmd/capsim", append(args,
		"-shard", "0/2", "-journal", j0, "-resume")...)
	if strings.Contains(out, "halted:") {
		t.Fatalf("resumed shard still halted:\n%s", out)
	}

	// Shard 1 runs uninterrupted, in parallel mode for variety.
	runMain(t, "./cmd/capsim", append(args,
		"-shard", "1/2", "-journal", j1, "-workers", "2")...)

	merged := runMain(t, "./cmd/campmerge", "-horizon", "30ms", j0, j1)
	if got := tallyLine(t, merged); got != golden {
		t.Errorf("merged tally diverged from unsharded campaign\ngot:  %s\nwant: %s", got, golden)
	}
}
