// Command vpsafety runs the reproduction experiments: every table and
// figure of the evaluation regenerates from the command line.
//
// Usage:
//
//	vpsafety -list             list experiments
//	vpsafety -exp E8           run one experiment
//	vpsafety -exp all          run everything
//	vpsafety -exp E8 -csv      emit tables as CSV
//	vpsafety -exp all -metrics m.json -trace-events t.json -progress
//
// With -metrics/-trace-events attached, every experiment result gains
// a wall-clock attribution table (where did the time go, per phase)
// and the run's phase spans and campaign activity export as a Chrome
// trace-event file for chrome://tracing or Perfetto.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	exp := flag.String("exp", "", "experiment ID to run (E1..E9, F2, F3, X1..X3, or 'all')")
	csv := flag.Bool("csv", false, "emit result tables as CSV instead of text")
	metricsPath := flag.String("metrics", "", "write the metrics snapshot (JSON) to this file")
	tracePath := flag.String("trace-events", "", "write Chrome trace-event JSON to this file")
	progress := flag.Bool("progress", false, "stream live campaign progress to stderr")
	flag.Parse()

	var reg *obs.Registry
	var tr *obs.TraceRecorder
	if *metricsPath != "" {
		reg = obs.NewRegistry()
	}
	if *tracePath != "" {
		tr = obs.NewTraceRecorder()
	}
	experiments.Instrument(reg, tr)
	if *progress {
		experiments.CampaignProgress = obs.ProgressLine(os.Stderr)
	}
	writeObs := func() {
		if err := obs.WriteMetricsFile(reg, *metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		if err := obs.WriteTraceFile(tr, *tracePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}

	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
	case *exp == "all":
		failed := 0
		for _, e := range experiments.All() {
			if !runOne(e, *csv) {
				failed++
			}
		}
		writeObs()
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "%d experiment(s) violated their claimed shape\n", failed)
			os.Exit(1)
		}
	case *exp != "":
		e, ok := experiments.Get(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		ok = runOne(e, *csv)
		writeObs()
		if !ok {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runOne(e experiments.Experiment, csv bool) bool {
	res, err := e.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
		return false
	}
	if csv {
		for _, t := range res.Tables {
			fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
		}
	} else {
		fmt.Println(res.Render())
	}
	return res.ShapeHolds
}
