// Command bench is the repository's one benchmark: six named campaign
// workloads, measured end to end with tracing off and layer by layer in
// a separate traced pass. README.md is the metric contract;
// BENCHMARK.json at the repository root is what the driver reads.
//
//	go run ./bench -workload NAME -seed N -seconds S -trace 0|1   one workload, one pass (driver form)
//	go run ./bench -seed N -out FILE                              every workload, both passes
//	go run ./bench -compare A.json B.json                         compare two sets of runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// Method constants, identical on both sides of any comparison.
const (
	// defaultWindow is how long each workload's closed loop runs.
	defaultWindow = 10.0
	// defaultSetUps is how often a workload is set up; setup_s is the
	// median.
	defaultSetUps = 3
	// miniRounds is how many rounds a workload that is not the selected
	// one runs in a traced pass, only to fill its own layers' numbers.
	miniRounds = 2
	// refShare is the part of a traced run's window spent untraced, to
	// give trace.overhead_ratio its base.
	refShare = 0.3
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); empty runs all six, both passes")
	seed := fs.Int64("seed", 1, "seed of the input generator")
	seconds := fs.Float64("seconds", defaultWindow, "length of each workload's measurement window")
	trace := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced pass")
	out := fs.String("out", "", "append this run to a JSON set file (all-workloads form)")
	traceOut := fs.String("trace-out", "", "write the traced pass's spans as Chrome trace-event JSON (default with -out: FILE.trace.json)")
	compare := fs.Bool("compare", false, "compare two set files: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two set files"))
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %v", fs.Args()))
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("-seconds must be positive"))
	}
	wd, err := newWorkDir(".")
	if err != nil {
		return fail(err)
	}
	defer wd.remove()
	b := &bench{
		in: generate(*seed), wd: wd, window: time.Duration(*seconds * float64(time.Second)),
		setUps: defaultSetUps, host: describeHost(), out: stdout,
	}
	fmt.Fprintf(stdout, "host: %s\nseed %d, window %.1f s per workload\n", b.host, *seed, *seconds)
	if *workload != "" {
		res, err := b.one(*workload, *trace != 0, *traceOut)
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}
	if *traceOut == "" && *out != "" {
		*traceOut = *out + ".trace.json"
	}
	rec, err := b.suite(*traceOut)
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if err := appendRun(*out, rec); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "appended run to %s\n", *out)
	}
	for _, w := range rec.Workloads {
		if w.Failed > 0 {
			return fail(fmt.Errorf("%s: %d of %d operations failed", w.Name, w.Failed, w.Attempted))
		}
	}
	return 0
}

// bench is one invocation's fixed context.
type bench struct {
	in     *inputs
	wd     *workDir
	window time.Duration
	setUps int
	host   hostInfo
	out    io.Writer
}

// driverResult is the last line of a one-workload run.
type driverResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is a value as the driver reads it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverMetrics(ms *metricSet) map[string]metric {
	out := make(map[string]metric, len(ms.vals))
	for name, s := range ms.vals {
		out[name] = metric{Value: s.Value, Unit: s.Unit}
	}
	return out
}

// printMetrics lists a metric set by name with unit and sample count.
func printMetrics(out io.Writer, ms *metricSet) {
	for _, d := range ms.defs {
		if s, ok := ms.vals[d.Name]; ok {
			fmt.Fprintf(out, "  %-44s %16.6g %-6s n=%d\n", d.Name, s.Value, s.Unit, s.N)
		}
	}
}

func printFailures(out io.Writer, name string, win window) {
	share := 0.0
	if win.attempted > 0 {
		share = float64(win.failed) / float64(win.attempted)
	}
	fmt.Fprintf(out, "  %-44s %16.6g %-6s attempted=%d failed=%d\n", "failed_share", share, "ratio", win.attempted, win.failed)
	if win.firstErr != nil {
		fmt.Fprintf(out, "  first failure of %s: %v\n", name, win.firstErr)
	}
}

// one runs a single workload in one pass: the driver's form.
func (b *bench) one(name string, traced bool, traceOut string) (*driverResult, error) {
	if !traced {
		w, setupS, err := setUpMedian(name, b.in, b.wd, b.setUps)
		if err != nil {
			return nil, err
		}
		defer w.close()
		win := runWindow(w, nil, b.window, 1)
		ms := endToEndMetrics(win, setupS, b.setUps)
		fmt.Fprintf(b.out, "%s, untraced:\n", name)
		printMetrics(b.out, ms)
		printFailures(b.out, name, win)
		return &driverResult{Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed, Metrics: driverMetrics(ms)}, nil
	}
	// The untraced reference first, on its own set-up: no wrapper, no
	// registry, no Instrument.
	w, _, err := setUpMedian(name, b.in, b.wd, 1)
	if err != nil {
		return nil, err
	}
	ref := runWindow(w, nil, time.Duration(refShare*float64(b.window)), 1)
	w.close()
	if ref.failed > 0 {
		return nil, fmt.Errorf("%s: untraced reference: %d of %d rounds failed: %w", name, ref.failed, ref.attempted, ref.firstErr)
	}
	windows := map[string]time.Duration{name: time.Duration((1 - refShare) * float64(b.window))}
	sets, wins, err := b.tracePass(windows, map[string]float64{name: ref.rate()}, traceOut)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(b.out, "%s, traced:\n", name)
	printMetrics(b.out, sets[name])
	win := wins[name]
	return &driverResult{Correct: true, Attempted: ref.attempted + win.attempted, Failed: 0, Metrics: driverMetrics(sets[name])}, nil
}

// tracePass runs the traced pass: every workload in the fixed order,
// for its window in windows or for miniRounds rounds when it has none,
// then the probes. Each workload's set is completed, first from the
// workloads before and after it in that order, then from the probes, so
// every set holds every per-layer metric.
func (b *bench) tracePass(windows map[string]time.Duration, refRates map[string]float64, traceOut string) (map[string]*metricSet, map[string]window, error) {
	own := map[string]*metricSet{}
	wins := map[string]window{}
	tracers := map[string]*tracer{}
	for _, name := range workloadNames {
		d, selected := windows[name]
		minRounds := miniRounds
		if selected {
			minRounds = 1
		}
		ms, tr, win, err := traceWorkload(name, b.in, b.wd, d, minRounds, refRates[name], b.out)
		if err != nil {
			return nil, nil, err
		}
		own[name], tracers[name], wins[name] = ms, tr, win
	}
	dir, err := b.wd.sub("probes")
	if err != nil {
		return nil, nil, err
	}
	probes, err := runProbes(dir)
	if err != nil {
		return nil, nil, err
	}
	full := map[string]*metricSet{}
	for _, name := range workloadNames {
		ms := newMetricSet(perLayer)
		ms.fillFrom(own[name])
		for _, other := range workloadNames {
			ms.fillFrom(own[other])
		}
		ms.fillFrom(probes)
		if miss := ms.missing(); len(miss) > 0 {
			return nil, nil, fmt.Errorf("traced pass measured no value for %v", miss)
		}
		full[name] = ms
	}
	if traceOut != "" {
		if err := writeChromeFile(traceOut, workloadNames, tracers); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(b.out, "wrote Chrome trace (first %d rounds per workload) to %s\n", traceRounds, traceOut)
	}
	return full, wins, nil
}

// runRecord is one all-workloads run as stored in a set file.
type runRecord struct {
	Host            hostInfo         `json:"host"`
	ParallelResults bool             `json:"parallel_results"`
	Seed            int64            `json:"seed"`
	WindowS         float64          `json:"window_s"`
	Start           time.Time        `json:"start"`
	End             time.Time        `json:"end"`
	Workloads       []workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Name        string            `json:"name"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	FailedShare float64           `json:"failed_share"`
	EndToEnd    map[string]sample `json:"end_to_end"`
	PerLayer    map[string]sample `json:"per_layer"`
}

// suite runs every workload untraced, in two interleaved passes of half
// the window each so host drift spreads over all of them, then every
// workload traced for half the window.
func (b *bench) suite(traceOut string) (*runRecord, error) {
	rec := &runRecord{Host: b.host, ParallelResults: b.host.parallel(), Seed: b.in.Seed, WindowS: b.window.Seconds(), Start: time.Now()}
	live := map[string]workload{}
	defer func() {
		for _, w := range live {
			w.close()
		}
	}()
	setupS := map[string]float64{}
	for _, name := range workloadNames {
		w, s, err := setUpMedian(name, b.in, b.wd, b.setUps)
		if err != nil {
			return nil, err
		}
		live[name], setupS[name] = w, s
	}
	wins := map[string]window{}
	for pass := 0; pass < 2; pass++ {
		for _, name := range workloadNames {
			wins[name] = wins[name].join(runWindow(live[name], nil, b.window/2, 1))
		}
	}
	for name, w := range live {
		w.close()
		delete(live, name)
	}
	windows, rates := map[string]time.Duration{}, map[string]float64{}
	for _, name := range workloadNames {
		windows[name], rates[name] = b.window/2, wins[name].rate()
	}
	layers, _, err := b.tracePass(windows, rates, traceOut)
	if err != nil {
		return nil, err
	}
	for _, name := range workloadNames {
		win := wins[name]
		e2e := endToEndMetrics(win, setupS[name], b.setUps)
		fmt.Fprintf(b.out, "%s, end to end (untraced):\n", name)
		printMetrics(b.out, e2e)
		printFailures(b.out, name, win)
		fmt.Fprintf(b.out, "%s, per layer (traced):\n", name)
		printMetrics(b.out, layers[name])
		rec.Workloads = append(rec.Workloads, workloadRecord{
			Name: name, Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed,
			FailedShare: float64(win.failed) / float64(win.attempted),
			EndToEnd:    e2e.vals, PerLayer: layers[name].vals,
		})
	}
	rec.End = time.Now()
	fmt.Fprintf(b.out, "full run took %.0f s\n", rec.End.Sub(rec.Start).Seconds())
	return rec, nil
}
