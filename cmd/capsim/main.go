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
//	capsim -campaign e8 -early-exit   # also stop each run when it re-converges with the golden run
//	capsim -campaign e8 -progress -metrics m.json -trace-events t.json
//	capsim -campaign e8 -shard 0/4 -journal shard0.journal   # one shard of four
//	capsim -campaign e8 -shard 0/4 -journal shard0.journal -resume
//	capsim -campaign nv -adaptive -novelty-budget 100 -workers -1   # signature-novelty feedback loop
//
// An optional positional argument after -campaign names the campaign
// (it labels the metrics and trace spans). -metrics writes the final
// metrics snapshot as JSON, -trace-events a Chrome trace-event file
// loadable in chrome://tracing or Perfetto, and -progress streams a
// live progress line to stderr.
//
// A campaign forks every scenario it can from golden-prefix snapshots
// instead of re-simulating the fault-free prefix; the result is the one
// a rebuild of the prototype for every scenario would print.
//
// -shard i/N runs only the i-th of N deterministic partitions of the
// scenario universe; -journal appends each outcome to a binary run
// journal as it completes, and -resume picks an interrupted journal
// back up, skipping scenarios already recorded — a JSONL journal
// written by an older capsim included, which stays JSONL. Ctrl-C stops
// the campaign cleanly after the in-flight scenarios finish, leaving
// the journal resumable. Completed shard journals merge with campmerge.
//
// -adaptive swaps the exhaustive scenario list for the
// signature-novelty feedback loop (DESIGN §16): -novelty-budget
// simulated runs are spent sweeping the universe and then mutating
// whatever produced a never-seen outcome signature, with
// equivalence-duplicate proposals pruned for free. It is the same
// campaign engine with a scenario source in place of the list, so it
// composes with -journal/-resume, -workers (the outcome stream is
// deterministic at any worker count), -progress, -metrics,
// -trace-events and -scenario-timeout; -shard, -early-exit,
// -hash-stride and an explicit -dedup are usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/campaignd"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
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
// error. With -resume an existing journal is picked up (in whichever
// encoding it was written) and a missing one is started, so the same
// command line works for the first run and re-runs; without -resume an
// existing file is refused. A fresh journal is binary. The returned
// sink is the writer itself, or the CAPSIM_FAIL_JOURNAL_AFTER
// fault-injecting wrapper around it.
func openJournal(path string, resume bool, h journal.Header) (*journal.Journal, *journal.Writer, stressor.JournalSink) {
	var j *journal.Journal
	var w *journal.Writer
	var err error
	if resume {
		if j, w, err = journal.Open(path, h); err != nil {
			die(1, err)
		}
	} else if w, err = journal.Create(path, h); err != nil {
		die(1, fmt.Errorf("%v (use -resume to continue an interrupted journal)", err))
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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	halt = func(completed int) bool {
		return ctx.Err() != nil || (limit > 0 && completed >= limit)
	}
	return halt, stop
}

// options is a parsed capsim command line: the campaign description,
// bound flag by flag to the fields of the spec every front-end
// validates and builds from, and the switches that describe no campaign
// — the mode, and the sinks this caller attaches to it.
type options struct {
	spec campaignd.Spec

	campaign, listSites bool
	faults              string

	metricsPath, tracePath string
	progress               bool
	journalPath            string
	resume                 bool
	interruptAfter         int
	logFormat              string
}

// parseArgs binds the command line to an options value. It checks
// nothing beyond flag syntax: what a campaign may and may not combine is
// Spec.Validate's to say, once, for every front-end.
func parseArgs(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	s, u := &o.spec, &o.spec.Universe
	fs := flag.NewFlagSet("capsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&u.World, "world", "normal", "environment: normal or crash")
	fs.BoolVar(&u.Unprotected, "unprotected", false, "disable the safety mechanisms")
	fs.StringVar(&o.faults, "faults", "", "semicolon-separated fault descriptions")
	fs.StringVar(&u.Horizon, "horizon", "80ms", "simulated duration")
	fs.BoolVar(&o.listSites, "sites", false, "list injection sites and exit")
	fs.BoolVar(&o.campaign, "campaign", false, "run the exhaustive single-fault campaign instead of one scenario")
	fs.IntVar(&s.Workers, "workers", 0, "campaign worker-pool size: 0 = sequential, -1 = one per CPU")
	fs.BoolVar(&s.EarlyExit, "early-exit", false, "terminate a run the moment its state hash re-converges with the golden trajectory")
	fs.StringVar(&s.HashStride, "hash-stride", "", "golden-trajectory hashing interval for -early-exit (e.g. 5ms; default horizon/16)")
	fs.BoolVar(&s.Dedup, "dedup", false, "collapse campaign scenarios with identical fault content into one run")
	fs.BoolVar(&s.Adaptive, "adaptive", false, "drive the campaign with the novelty-adaptive strategy (outcome signatures steer scenario generation) instead of the fixed universe")
	fs.IntVar(&s.NoveltyBudget, "novelty-budget", 0, "simulated-run budget for -adaptive (default 64)")
	fs.Int64Var(&s.NoveltySeed, "novelty-seed", 0, "RNG seed for the -adaptive strategy (default 1)")
	fs.StringVar(&o.metricsPath, "metrics", "", "write the metrics snapshot (JSON) to this file")
	fs.StringVar(&o.tracePath, "trace-events", "", "write Chrome trace-event JSON to this file")
	fs.BoolVar(&o.progress, "progress", false, "stream live campaign progress to stderr")
	fs.StringVar(&s.Shard, "shard", "", "run one shard i/N of the campaign universe (e.g. 0/4)")
	fs.StringVar(&o.journalPath, "journal", "", "append per-scenario outcomes to this run journal")
	fs.BoolVar(&o.resume, "resume", false, "resume an interrupted -journal, skipping recorded scenarios")
	fs.StringVar(&s.ScenarioTimeout, "scenario-timeout", "", "wall-clock budget per scenario, e.g. 2s (default none)")
	fs.IntVar(&o.interruptAfter, "interrupt-after", 0, "stop cleanly after N completed runs (testing aid; journal stays resumable)")
	fs.StringVar(&o.logFormat, "log-format", "", "stream structured campaign logs to stderr: text or json (default off)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	// "-campaign e8" names the campaign. The boolean flag consumes no
	// operand, so the positional name stops flag parsing; pick it up
	// and re-parse the remainder (already-set flags keep their values).
	s.Campaign = "capsim"
	if o.campaign && fs.NArg() > 0 && !strings.HasPrefix(fs.Arg(0), "-") {
		s.Campaign = fs.Arg(0)
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// die reports err and exits: with 2 for a refused command line — before
// any simulation work — and with 1 for a failure while running it.
func die(code int, err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(code)
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	} else if err != nil {
		os.Exit(2) // the flag set has already said why
	}
	// Everything that can refuse the command line does so here: the spec
	// (all of it for a campaign, its prototype half for -sites and
	// -faults), then the switches only this front-end has.
	spec := &o.spec
	if o.campaign {
		err = spec.Validate()
	} else {
		err = spec.ValidatePrototype()
	}
	if err != nil {
		die(2, err)
	}
	if o.resume && o.journalPath == "" {
		die(2, fmt.Errorf("-resume requires -journal"))
	}
	if !o.campaign && !o.listSites && o.faults == "" {
		die(2, fmt.Errorf("need -faults (or -sites); see fault.ParseDescriptor syntax"))
	}
	// Structured logging is opt-in: the default stdout/stderr surface
	// stays byte-stable for the goldenfile harness.
	var campaignLog *slog.Logger
	if o.logFormat != "" {
		if campaignLog, err = obs.NewLogger(os.Stderr, o.logFormat, slog.LevelInfo); err != nil {
			die(2, err)
		}
	}

	var reg *obs.Registry
	var tr *obs.TraceRecorder
	if o.metricsPath != "" {
		reg = obs.NewRegistry()
	}
	if o.tracePath != "" {
		tr = obs.NewTraceRecorder()
	}
	writeObs := func() {
		if err := obs.WriteMetricsFile(reg, o.metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		if err := obs.WriteTraceFile(tr, o.tracePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}

	runner, err := spec.BuildRunner()
	if err != nil {
		die(1, err)
	}
	defer runner.Close()
	// Attach after BuildRunner so the golden run stays out of the data.
	runner.Instrument(reg, tr)
	if o.listSites {
		for _, s := range runner.Sites() {
			fmt.Println(s)
		}
		return
	}
	if o.campaign {
		// The campaign is the one the daemon and the fabric would build
		// from this spec; the sinks are this caller's.
		c, scenarios, err := spec.Build(runner)
		if err != nil {
			die(1, err)
		}
		c.Metrics, c.Trace, c.Log = reg, tr, campaignLog
		if o.progress {
			c.Progress = obs.ProgressLine(os.Stderr)
		}
		var jw *journal.Writer
		if o.journalPath != "" {
			c.Resume, jw, c.Journal = openJournal(o.journalPath, o.resume, c.JournalHeader(scenarios))
		}
		var stopSignals func()
		c.Halt, stopSignals = interruptHalt(o.journalPath != "", o.interruptAfter)
		res, err := c.Execute(scenarios)
		stopSignals()
		if jw != nil {
			if cerr := jw.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		writeObs()
		if err != nil {
			die(1, err)
		}
		// The summary block is the spec's, so the daemon's text result and
		// this CLI stay byte-identical for the same campaign — the
		// goldenfile harness pins that.
		fmt.Print(spec.Summary(len(scenarios), res).Text())
		if res.Tally[fault.SafetyCritical] > 0 {
			os.Exit(1)
		}
		return
	}
	sc, err := fault.ParseScenario("cli", o.faults)
	if err != nil {
		die(1, err)
	}
	out := runner.RunScenario(sc)
	writeObs()
	fmt.Printf("world:     %s\n", spec.Universe.World)
	fmt.Printf("config:    protected=%v\n", !spec.Universe.Unprotected)
	for _, d := range sc.Faults {
		fmt.Printf("fault:     %s\n", d)
	}
	fmt.Printf("outcome:   %s\n", out.Class)
	if out.Detail != "" {
		fmt.Printf("detail:    %s\n", out.Detail)
	}
	if out.Class == fault.SafetyCritical {
		os.Exit(1)
	}
}
