// Command campmerge merges completed shard journals of a capsim
// campaign back into one result, byte-identical to the unsharded run.
//
// Usage:
//
//	campmerge shard0.journal shard1.journal shard2.journal shard3.journal
//	campmerge -world crash -unprotected -stop-on-first j0.journal j1.journal
//
// The world/config/horizon flags must match the capsim invocations
// that produced the journals: campmerge rebuilds the same scenario
// universe and refuses journals whose universe hash disagrees, so a
// merge against the wrong prototype configuration fails loudly
// instead of mislabeling outcomes.
//
// Journal encodings are sniffed per file: the binary journals capsim
// and capsim-coord write merge together with JSONL shards an older
// capsim wrote, so one campaign's shards need not agree on a spelling.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/campaignd"
	"repro/internal/fault"
	"repro/internal/journal"
)

func main() {
	// The flags bind to the fields of the spec the shards ran under, so
	// the universe is rebuilt — and refused — exactly as capsim and the
	// daemon's POST /merge would.
	spec := &campaignd.Spec{}
	u := &spec.Universe
	flag.StringVar(&u.World, "world", "normal", "environment: normal or crash")
	flag.BoolVar(&u.Unprotected, "unprotected", false, "disable the safety mechanisms")
	flag.StringVar(&u.Horizon, "horizon", "80ms", "simulated duration")
	flag.StringVar(&u.Inject, "inject", "10ms", "fault activation time of the campaign universe")
	flag.BoolVar(&spec.Dedup, "dedup", false, "the shards ran with -dedup")
	flag.BoolVar(&spec.StopOnFirst, "stop-on-first", false, "the shards ran with stop-on-first semantics")
	flag.Parse()
	die := func(code int, err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}
	if flag.NArg() == 0 {
		die(2, fmt.Errorf("usage: campmerge [flags] shard0.journal [shard1.journal ...]"))
	}
	if err := spec.Validate(); err != nil {
		die(2, err)
	}

	runner, err := spec.BuildRunner()
	if err != nil {
		die(1, err)
	}
	defer runner.Close()
	js := make([]*journal.Journal, flag.NArg())
	for i, path := range flag.Args() {
		if js[i], err = journal.Read(path); err != nil {
			die(1, err)
		}
	}
	res, total, err := spec.Merge(runner, js)
	if err != nil {
		die(1, err)
	}

	fmt.Printf("world:     %s\n", u.World)
	fmt.Printf("config:    protected=%v\n", !u.Unprotected)
	fmt.Printf("campaign:  %d single-fault scenarios, %d shards merged\n", total, flag.NArg())
	fmt.Printf("tally:     %s\n", res.Tally)
	if res.DedupSavedRuns > 0 {
		fmt.Printf("dedup:     %d duplicate runs skipped\n", res.DedupSavedRuns)
	}
	if o, ok := res.FirstFailure(); ok {
		fmt.Printf("first failure at run %d: %s\n", res.RunsToFirstFailure, o.Scenario.ID)
	}
	if res.Tally[fault.SafetyCritical] > 0 {
		os.Exit(1)
	}
}
