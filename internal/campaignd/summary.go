package campaignd

import (
	"fmt"
	"strings"

	"repro/internal/stressor"
)

// Summary renders the campaign summary block exactly as cmd/capsim
// prints it. capsim and the daemon's text result share this one
// renderer, which is what makes "POST the spec to the daemon" and
// "run the equivalent capsim command line" byte-identical — the
// property the goldenfile harness pins.
type Summary struct {
	// World and Protected echo the prototype configuration.
	World     string
	Protected bool
	// Scenarios is the universe size (for an adaptive campaign, the
	// proposals delivered), Workers the requested pool size (as given:
	// -1 means one per CPU).
	Scenarios int
	Workers   int
	// Inline marks a client-supplied universe (daemon only; capsim
	// always runs the generated single-fault universe).
	Inline bool
	// Shard is printed when it actually partitions.
	Shard stressor.Shard
	// Result is the finished campaign, or what an interrupted one
	// (Result.Halted) recorded.
	Result *stressor.Result
}

// Text renders the summary block.
func (s Summary) Text() string {
	w := &strings.Builder{}
	noun := "single-fault scenarios"
	if s.Inline {
		noun = "inline scenarios"
	}
	fmt.Fprintf(w, "world:     %s\n", s.World)
	fmt.Fprintf(w, "config:    protected=%v\n", s.Protected)
	fmt.Fprintf(w, "campaign:  %d %s, workers=%d\n", s.Scenarios, noun, s.Workers)
	if s.Shard.Enabled() {
		fmt.Fprintf(w, "shard:     %s\n", s.Shard)
	}
	if s.Result.Halted {
		fmt.Fprintf(w, "halted:    %d outcomes recorded; rerun with -resume to continue\n", len(s.Result.Outcomes))
	}
	fmt.Fprintf(w, "tally:     %s\n", s.Result.Tally)
	if s.Result.DedupSavedRuns > 0 {
		fmt.Fprintf(w, "dedup:     %d duplicate runs skipped\n", s.Result.DedupSavedRuns)
	}
	if o, ok := s.Result.FirstFailure(); ok {
		fmt.Fprintf(w, "first failure at run %d: %s\n", s.Result.RunsToFirstFailure, o.Scenario.ID)
	}
	if a := s.Result.Adaptive; a != nil {
		fmt.Fprintf(w, "proposed:  %d (%d simulated, %d pruned, %d resumed)\n",
			len(s.Result.Outcomes), a.Simulated, s.Result.DedupSavedRuns, a.Resumed)
		fmt.Fprintf(w, "unique:    %d outcome signatures\n", a.UniqueSignatures)
	}
	return w.String()
}
