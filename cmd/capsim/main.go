// Command capsim runs the CAPS virtual prototype under a user-
// specified fault scenario, written in the textual fault description
// syntax of fault.ParseDescriptor.
//
// Usage:
//
//	capsim -faults "short-to-supply @caps.accel0.harness from 10ms"
//	capsim -world crash -unprotected \
//	       -faults "omission @caps.can.bus from 15ms; open @caps.accel0.harness from 5ms"
//	capsim -sites                  # list injection sites
//	capsim -campaign -workers -1   # exhaustive single-fault campaign, one worker per CPU
//	capsim -campaign e8 -workers -1 -checkpoints   # restore the golden prefix instead of re-simulating it
//	capsim -campaign e8 -checkpoint-tree -early-exit   # fork from retained tree nodes, stop on re-convergence
//	capsim -campaign e8 -progress -metrics m.json -trace-events t.json
//	capsim -campaign e8 -shard 0/4 -journal shard0.jsonl   # one shard of four
//	capsim -campaign e8 -shard 0/4 -journal shard0.jsonl -resume
//	capsim -campaign nv -adaptive -novelty-budget 100 -workers -1   # signature-novelty feedback loop
//
// An optional positional argument after -campaign names the campaign
// (it labels the metrics and trace spans). -metrics writes the final
// metrics snapshot as JSON, -trace-events a Chrome trace-event file
// loadable in chrome://tracing or Perfetto, and -progress streams a
// live progress line to stderr.
//
// -shard i/N runs only the i-th of N deterministic partitions of the
// scenario universe; -journal appends each outcome to a run journal as
// it completes (-journal-codec selects JSONL, the default, or the
// compact binary framing), and -resume picks an interrupted journal
// back up, skipping scenarios already recorded — sniffing and adopting
// whichever encoding the journal already uses. Ctrl-C stops the
// campaign cleanly after the in-flight scenarios finish, leaving the
// journal resumable. Completed shard journals merge with campmerge,
// mixed encodings included.
//
// -adaptive swaps the exhaustive scenario list for the
// signature-novelty feedback loop (DESIGN §16): -novelty-budget
// simulated runs are spent sweeping the universe and then mutating
// whatever produced a never-seen outcome signature, with
// equivalence-duplicate proposals pruned for free. It is the same
// campaign engine with a scenario source in place of the list, so it
// composes with -journal/-resume, -workers (the outcome stream is
// deterministic at any worker count), -progress, -metrics,
// -trace-events and -scenario-timeout; -shard, -checkpoints,
// -checkpoint-tree, -early-exit, -hash-stride and an explicit -dedup
// are usage errors.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/campaignd"
	"repro/internal/caps"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// failingJournal is a testing aid: it fails every Append past a
// budget, simulating a journal path that becomes unwritable mid-run
// (full disk, yanked mount). Enabled via CAPSIM_FAIL_JOURNAL_AFTER=N
// so the E2E harness can pin the exit-code contract — a campaign
// whose journal stops persisting must exit non-zero, never report
// success over runs that can't be resumed or merged.
type failingJournal struct {
	w    *journal.Writer
	left int // the engine appends from one goroutine
}

func (f *failingJournal) Append(e journal.Entry) error {
	if f.left <= 0 {
		return fmt.Errorf("journal: append: injected write failure (CAPSIM_FAIL_JOURNAL_AFTER)")
	}
	f.left--
	return f.w.Append(e)
}

// openJournal opens the -journal file for a campaign, exiting on any
// error. With -resume an existing journal is picked up (sniffing and
// adopting its own encoding; -journal-codec only shapes fresh
// journals) and a missing one is started, so the same command line
// works for the first run and re-runs; without -resume an existing
// file is refused. The returned sink is the writer itself, or the
// CAPSIM_FAIL_JOURNAL_AFTER fault-injecting wrapper around it.
func openJournal(path, codecName string, resume bool, h journal.Header) (*journal.Journal, *journal.Writer, stressor.JournalSink) {
	codec, err := journal.ParseCodec(codecName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var j *journal.Journal
	var w *journal.Writer
	if resume {
		if j, w, err = journal.Open(path, h, codec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else if w, err = journal.CreateCodec(path, h, codec); err != nil {
		fmt.Fprintf(os.Stderr, "%v (use -resume to continue an interrupted journal)\n", err)
		os.Exit(1)
	}
	if n, err := strconv.Atoi(os.Getenv("CAPSIM_FAIL_JOURNAL_AFTER")); err == nil && n >= 0 {
		return j, w, &failingJournal{w: w, left: n}
	}
	return j, w, w
}

// interruptHalt builds the clean-stop Halt hook of a journaled (or
// -interrupt-after limited) campaign — nil for any other: Ctrl-C and
// the -interrupt-after testing aid stop the campaign between
// scenarios, and with -journal the run is resumable afterwards. The
// caller invokes stop as soon as Execute returns — not at process exit
// — so a second interrupt while reports are being written kills the
// process instead of being swallowed by a stale handler. The hook runs
// before any dispatch, including the first one after journal replay: an
// interrupt that lands during replay stops the campaign with zero new
// runs and the journal stays valid and re-resumable.
func interruptHalt(journaled bool, limit int) (halt func(completed int) bool, stop func()) {
	if !journaled && limit <= 0 {
		return nil, func() {}
	}
	var interrupted atomic.Bool
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ch {
			interrupted.Store(true)
		}
	}()
	halt = func(completed int) bool {
		return interrupted.Load() || (limit > 0 && completed >= limit)
	}
	return halt, func() {
		signal.Stop(ch)
		close(ch)
		<-done
	}
}

func main() {
	world := flag.String("world", "normal", "environment: normal or crash")
	unprotected := flag.Bool("unprotected", false, "disable the safety mechanisms")
	faults := flag.String("faults", "", "semicolon-separated fault descriptions")
	horizonFlag := flag.String("horizon", "80ms", "simulated duration")
	listSites := flag.Bool("sites", false, "list injection sites and exit")
	campaign := flag.Bool("campaign", false, "run the exhaustive single-fault campaign instead of one scenario")
	workers := flag.Int("workers", 0, "campaign worker-pool size: 0 = sequential, -1 = one per CPU")
	reuseOff := flag.Bool("reuse-off", false, "rebuild the prototype for every scenario instead of reusing pooled kernels")
	checkpoints := flag.Bool("checkpoints", false, "snapshot the golden prefix per worker and restore it instead of re-simulating (implies kernel reuse)")
	checkpointTree := flag.Bool("checkpoint-tree", false, "retain a tree of golden-prefix snapshots and fork each scenario from the deepest shared one (implies -checkpoints)")
	earlyExit := flag.Bool("early-exit", false, "terminate a run the moment its state hash re-converges with the golden trajectory (implies -checkpoints)")
	hashStride := flag.String("hash-stride", "", "golden-trajectory hashing interval for -early-exit (e.g. 5ms; default horizon/16)")
	dedup := flag.Bool("dedup", false, "collapse campaign scenarios with identical fault content into one run")
	adaptive := flag.Bool("adaptive", false, "drive the campaign with the novelty-adaptive strategy (outcome signatures steer scenario generation) instead of the fixed universe")
	noveltyBudget := flag.Int("novelty-budget", 64, "simulated-run budget for -adaptive")
	noveltySeed := flag.Int64("novelty-seed", 1, "RNG seed for the -adaptive strategy")
	metricsPath := flag.String("metrics", "", "write the metrics snapshot (JSON) to this file")
	tracePath := flag.String("trace-events", "", "write Chrome trace-event JSON to this file")
	progress := flag.Bool("progress", false, "stream live campaign progress to stderr")
	shardFlag := flag.String("shard", "", "run one shard i/N of the campaign universe (e.g. 0/4)")
	journalPath := flag.String("journal", "", "append per-scenario outcomes to this run journal")
	journalCodec := flag.String("journal-codec", "jsonl", "encoding for a fresh -journal: jsonl or binary (resume adopts the existing encoding)")
	resume := flag.Bool("resume", false, "resume an interrupted -journal, skipping recorded scenarios")
	scenarioTimeout := flag.Duration("scenario-timeout", 0, "wall-clock budget per scenario (0 = none)")
	interruptAfter := flag.Int("interrupt-after", 0, "stop cleanly after N completed runs (testing aid; journal stays resumable)")
	logFormat := flag.String("log-format", "", "stream structured campaign logs to stderr: text or json (default off)")
	flag.Parse()

	// "-campaign e8" names the campaign. The boolean flag consumes no
	// operand, so the positional name stops flag parsing; pick it up
	// and re-parse the remainder (already-set flags keep their values).
	campaignName := "capsim"
	if *campaign && flag.NArg() > 0 && !strings.HasPrefix(flag.Arg(0), "-") {
		campaignName = flag.Arg(0)
		if err := flag.CommandLine.Parse(flag.Args()[1:]); err != nil {
			os.Exit(2)
		}
	}

	// Structured logging is opt-in: the default stdout/stderr surface
	// stays byte-stable for the goldenfile harness. Validated up front
	// so a bogus format is a usage error before any simulation work.
	var campaignLog *slog.Logger
	if *logFormat != "" {
		l, err := obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		campaignLog = l
	}

	var reg *obs.Registry
	var tr *obs.TraceRecorder
	if *metricsPath != "" {
		reg = obs.NewRegistry()
	}
	if *tracePath != "" {
		tr = obs.NewTraceRecorder()
	}
	writeObs := func() {
		if err := obs.WriteMetricsFile(reg, *metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		if err := obs.WriteTraceFile(tr, *tracePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}

	cfg := caps.Protected()
	if *unprotected {
		cfg = caps.Unprotected()
	}
	var w *caps.World
	switch *world {
	case "normal":
		w = caps.NormalDriving()
	case "crash":
		w = caps.CrashAt(sim.MS(20))
	default:
		fmt.Fprintf(os.Stderr, "unknown world %q\n", *world)
		os.Exit(2)
	}
	horizon, err := fault.ParseDuration(*horizonFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	runner, err := caps.NewRunner(cfg, w, horizon)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer runner.Close()
	runner.ReuseOff = *reuseOff
	// Attach after NewRunner so the golden run stays out of the data.
	runner.Instrument(reg, tr)
	if *listSites {
		for _, s := range runner.Sites() {
			fmt.Println(s)
		}
		return
	}
	if *campaign {
		scenarios := fault.Singles(runner.Universe(sim.MS(10)))
		var shard stressor.Shard
		if *shardFlag != "" {
			if shard, err = stressor.ParseShard(*shardFlag); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
		c := &stressor.Campaign{
			Name: campaignName, Run: runner.RunFunc(), Workers: *workers,
			Dedup: *dedup, Metrics: reg, Trace: tr,
			Shard: shard, ScenarioTimeout: *scenarioTimeout,
			Log: campaignLog,
		}
		if *adaptive {
			// What stressor.Campaign refuses next to a Source, plus an
			// explicit -dedup (adaptive already implies it): a usage error
			// here rather than a silent no-op or a late engine error.
			var set []string
			for _, f := range []struct {
				name string
				on   bool
			}{
				{"-checkpoint-tree", *checkpointTree}, {"-checkpoints", *checkpoints},
				{"-dedup", *dedup}, {"-early-exit", *earlyExit},
				{"-hash-stride", *hashStride != ""}, {"-shard", *shardFlag != ""},
			} {
				if f.on {
					set = append(set, f.name)
				}
			}
			if len(set) > 0 {
				fmt.Fprintf(os.Stderr, "%s cannot be combined with -adaptive\n", strings.Join(set, ", "))
				os.Exit(2)
			}
			if *noveltyBudget < 1 {
				fmt.Fprintln(os.Stderr, "-novelty-budget must be >= 1")
				os.Exit(2)
			}
			// The Novelty strategy over the runner's fault universe replaces
			// the list, on the signed RunFunc so outcome signatures reflect
			// real prototype state.
			c.Run, c.Dedup = runner.SignedRunFunc(), true
			c.Source = campaignd.NewNovelty(runner.Universe(sim.MS(10)), *noveltyBudget, *noveltySeed, horizon)
			c.MaxRuns, c.Fingerprint = *noveltyBudget, stressor.UniverseHash(scenarios)
			scenarios = nil
		}
		if *checkpointTree || *earlyExit || *hashStride != "" {
			// Tree and early-exit modes build on checkpoint sessions.
			*checkpoints = true
		}
		if *checkpoints {
			if *reuseOff {
				fmt.Fprintln(os.Stderr, "-checkpoints requires kernel reuse; drop -reuse-off")
				os.Exit(2)
			}
			c.Checkpoints = true
			c.Checkpointer = runner
			c.CheckpointTree = *checkpointTree
			c.EarlyExit = *earlyExit
			if *hashStride != "" {
				if !*earlyExit {
					fmt.Fprintln(os.Stderr, "-hash-stride only applies with -early-exit")
					os.Exit(2)
				}
				stride, err := fault.ParseDuration(*hashStride)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(2)
				}
				c.HashStride = stride
			}
		}
		if *progress {
			c.Progress = obs.ProgressLine(os.Stderr)
		}
		var jw *journal.Writer
		if *journalPath != "" {
			c.Resume, jw, c.Journal = openJournal(*journalPath, *journalCodec, *resume, c.JournalHeader(scenarios))
		} else if *resume {
			fmt.Fprintln(os.Stderr, "-resume requires -journal")
			os.Exit(2)
		}
		var stopSignals func()
		c.Halt, stopSignals = interruptHalt(*journalPath != "", *interruptAfter)
		res, err := c.Execute(scenarios)
		stopSignals()
		if jw != nil {
			if cerr := jw.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		writeObs()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// The summary block is rendered by the shared campaignd.Summary
		// so the daemon's text result and this CLI stay byte-identical
		// for the same campaign — the goldenfile harness pins that.
		// An adaptive campaign has no list; its size is what it delivered.
		campaignd.Summary{
			World: *world, Protected: !*unprotected,
			Scenarios: max(len(scenarios), len(res.Outcomes)), Workers: *workers,
			Shard: shard, Result: res,
		}.WriteText(os.Stdout)
		if res.Tally[fault.SafetyCritical] > 0 {
			os.Exit(1)
		}
		return
	}
	if *faults == "" {
		fmt.Fprintln(os.Stderr, "need -faults (or -sites); see fault.ParseDescriptor syntax")
		os.Exit(2)
	}
	sc, err := fault.ParseScenario("cli", *faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	o := runner.RunScenario(sc)
	writeObs()
	fmt.Printf("world:     %s\n", *world)
	fmt.Printf("config:    protected=%v\n", !*unprotected)
	for _, d := range sc.Faults {
		fmt.Printf("fault:     %s\n", d)
	}
	fmt.Printf("outcome:   %s\n", o.Class)
	if o.Detail != "" {
		fmt.Printf("detail:    %s\n", o.Detail)
	}
	if o.Class == fault.SafetyCritical {
		os.Exit(1)
	}
}
