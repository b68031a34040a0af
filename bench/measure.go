package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/obs"
)

// window is one closed loop of rounds: the generator starts the next
// round only when the previous one has returned.
type window struct {
	// rounds are the wall times of the rounds that succeeded, in seconds.
	rounds    []float64
	scenarios int
	attempted int
	failed    int
	firstErr  error
	wall, cpu time.Duration
	mallocs   uint64
	allocated uint64
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runWindow drives rounds for at least d and at least minRounds rounds.
func runWindow(w workload, tr *tracer, d time.Duration, minRounds int) window {
	var win window
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, start := cpuTime(), time.Now()
	for time.Since(start) < d || win.attempted < minRounds {
		if tr != nil {
			tr.nextRound()
		}
		t0 := tr.now()
		r := w.round()
		tr.add(kindRound, generatorLane, t0)
		win.attempted++
		if r.err != nil {
			win.failed++
			if win.firstErr == nil {
				win.firstErr = r.err
			}
			continue
		}
		win.scenarios += r.scenarios
		win.rounds = append(win.rounds, r.wall.Seconds())
	}
	win.wall, win.cpu = time.Since(start), cpuTime()-cpu0
	runtime.ReadMemStats(&m1)
	win.mallocs, win.allocated = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return win
}

// join folds a second pass over the same workload into the first.
func (w window) join(o window) window {
	w.rounds = append(w.rounds, o.rounds...)
	w.scenarios += o.scenarios
	w.attempted += o.attempted
	w.failed += o.failed
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
	w.wall += o.wall
	w.cpu += o.cpu
	w.mallocs += o.mallocs
	w.allocated += o.allocated
	return w
}

func (w window) rate() float64 {
	if w.wall <= 0 {
		return 0
	}
	return float64(w.scenarios) / w.wall.Seconds()
}

// endToEndMetrics turns an untraced window and its set-up time into the
// end-to-end metric set.
func endToEndMetrics(win window, setupS float64, setups int) *metricSet {
	ms := newMetricSet(endToEnd)
	n := float64(win.scenarios)
	if n == 0 {
		n = 1
	}
	ms.set("setup_s", setupS, setups)
	ms.set("scenarios_per_s", win.rate(), len(win.rounds))
	ms.set("campaign_s_p50", median(win.rounds), len(win.rounds))
	ms.set("cpu_ms_per_scenario", float64(win.cpu)/1e6/n, len(win.rounds))
	ms.set("allocs_per_scenario", float64(win.mallocs)/n, len(win.rounds))
	ms.set("alloc_kb_per_scenario", float64(win.allocated)/1e3/n, len(win.rounds))
	return ms
}

// workDir is the scratch space of this process: journals, the daemon's
// store, the coordinator's shard journals. It is removed at exit.
type workDir struct {
	base, root string
	n          int
}

// newWorkDir makes the scratch space under base/.bench_work. The
// command uses the directory it was started from, so that everything
// the benchmark writes stays inside its checkout.
func newWorkDir(base string) (*workDir, error) {
	root := filepath.Join(base, ".bench_work", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &workDir{base: base, root: root}, nil
}

// sub makes a fresh directory for one set-up.
func (d *workDir) sub(name string) (string, error) {
	d.n++
	p := filepath.Join(d.root, fmt.Sprintf("%s-%d", name, d.n))
	return p, os.MkdirAll(p, 0o755)
}

func (d *workDir) remove() {
	os.RemoveAll(d.root)
	os.Remove(filepath.Join(d.base, ".bench_work")) // only succeeds when no other run is using it
}

// setUp builds one workload, timed. The workload is closed again when
// set-up fails.
func setUp(name string, in *inputs, e env) (workload, time.Duration, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := w.setup(in, e); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("%s: set-up: %w", name, err)
	}
	return w, time.Since(start), nil
}

// setUpMedian sets the workload up `times` times, keeps the last one
// and reports the median set-up time.
func setUpMedian(name string, in *inputs, wd *workDir, times int) (workload, float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		dir, err := wd.sub(name)
		if err != nil {
			return nil, 0, err
		}
		w, d, err := setUp(name, in, env{dir: dir})
		if err != nil {
			return nil, 0, err
		}
		secs = append(secs, d.Seconds())
		if i == times-1 {
			return w, median(secs), nil
		}
		w.close()
	}
}

// traced is one workload's traced window with everything the per-layer
// numbers are computed from.
type traced struct {
	name string
	win  window
	tr   *tracer
	// reg holds the registry counter growth over the window, summed over
	// label sets by base name (outcome counters keep their class).
	reg map[string]float64
	// kern holds the kernel's own counters (sim.*) over the one round
	// that ran with the kernel Instrument attached, kernScenarios that
	// round's scenario count. Both are zero for a workload whose kernels
	// the benchmark cannot instrument from outside.
	kern          map[string]float64
	kernScenarios float64
	// daemonSimNS is the summed campaign.elapsed_ns the daemon reported
	// for the window's runs (set by the daemon workload's layers).
	daemonSimNS float64
}

// regTotals sums a registry's counters by base name.
func regTotals(reg *obs.Registry) map[string]float64 {
	counters := map[string]float64{}
	for _, m := range reg.Snapshot() {
		if m.Kind != "counter" {
			continue
		}
		key := m.Name
		if m.Name == "campaign.outcomes" {
			key += "/" + m.Label("class")
		}
		counters[key] += m.Value
	}
	return counters
}

// traceWorkload sets a workload up with every wrapper and registry
// attached, runs one traced window and computes the workload's own
// per-layer numbers. refRate is the untraced scenarios_per_s to compare
// with; when zero, trace.overhead_ratio is left unset.
func traceWorkload(name string, in *inputs, wd *workDir, d time.Duration, minRounds int, refRate float64, out io.Writer) (*metricSet, *tracer, window, error) {
	dir, err := wd.sub(name + "-traced")
	if err != nil {
		return nil, nil, window{}, err
	}
	tr, reg := newTracer(), obs.NewRegistry()
	w, _, err := setUp(name, in, env{dir: dir, tr: tr, reg: reg})
	if err != nil {
		return nil, nil, window{}, err
	}
	defer w.close()
	kern, kernScenarios, err := kernelRound(w)
	if err != nil {
		return nil, nil, window{}, fmt.Errorf("%s: %w", name, err)
	}
	// The warm-up and kernel rounds' spans and counts are not measurement.
	tr.reset()
	before := regTotals(reg)
	win := runWindow(w, tr, d, minRounds)
	after := regTotals(reg)
	for k, v := range before {
		after[k] -= v
	}
	if win.failed > 0 {
		return nil, nil, win, fmt.Errorf("%s: traced pass: %d of %d rounds failed: %w", name, win.failed, win.attempted, win.firstErr)
	}
	t := &traced{name: name, win: win, tr: tr, reg: after, kern: kern, kernScenarios: kernScenarios}
	ms := newMetricSet(perLayer)
	t.generic(ms)
	w.layers(&layerStats{traced: t, ms: ms})
	if refRate > 0 && win.rate() > 0 {
		ms.set("trace.overhead_ratio", refRate/win.rate(), len(win.rounds))
	}
	ms.set("trace.unattributed_share", t.budget(out), len(win.rounds))
	return ms, tr, win, nil
}

// kernelRound runs one extra round with the runner's kernel Instrument
// attached and returns the kernel counters it published. Only that
// round pays for the Instrument (it times every activation); the traced
// window itself runs without it.
func kernelRound(w workload) (map[string]float64, float64, error) {
	k, ok := w.(interface{ instrument(*obs.Registry) bool })
	if !ok {
		return nil, 0, nil
	}
	reg := obs.NewRegistry()
	if !k.instrument(reg) {
		return nil, 0, nil
	}
	r := w.round()
	k.instrument(nil)
	if r.err != nil {
		return nil, 0, fmt.Errorf("kernel-instrumented round: %w", r.err)
	}
	return regTotals(reg), float64(r.scenarios), nil
}

// layerStats is what a workload's layers method is given.
type layerStats struct {
	*traced
	ms *metricSet
}

// sum adds up the span time of some kinds, in nanoseconds.
func (t *traced) sum(kinds ...spanKind) float64 {
	var s float64
	for _, k := range kinds {
		s += t.tr.total(k)
	}
	return s
}

// laneTime is the worker time the window had: engine wall times the
// worker lanes for the in-process engines, the fabric workers' own
// spans for the fabric, the round wall for the single daemon client.
func (t *traced) laneTime() float64 {
	switch {
	case t.name == wlFabric:
		return t.sum(kindWorker)
	case t.name == wlDaemon:
		return t.sum(kindRound)
	}
	return float64(t.tr.laneCount()) * t.sum(kindEngine)
}

// generic computes the per-layer numbers any workload with the seam
// gives: run spans, the stressor's registry counters, the kernel's.
func (t *traced) generic(ms *metricSet) {
	n := float64(t.win.scenarios)
	rounds := float64(len(t.win.rounds))
	if n == 0 || rounds == 0 {
		return
	}
	ms.set("trace.spans", float64(t.tr.count()), int(rounds))
	if runs := t.tr.durations(kindRun); len(runs) > 0 {
		model := "caps"
		if t.name == wlECU {
			model = "ecu"
		}
		ms.set(model+".run_ns_p50", quantile(runs, 0.50), len(runs))
		ms.set(model+".run_ns_p99", quantile(runs, 0.99), len(runs))
		if lt := t.laneTime(); lt > 0 {
			busy := t.sum(kindRun)
			ms.set("stressor.worker_utilization", busy/lt, len(runs))
			over := lt - busy - t.sum(kindAppend, kindNext, kindObserve, kindLease, kindFlush, kindResolve)
			ms.set("stressor.engine_overhead_ns_per_scenario", over/n, len(runs))
		}
	}
	c := t.reg
	if est := c["campaign.tree_hits"] + c["campaign.tree_extends"] + c["campaign.tree_rebuilds"]; est > 0 {
		ms.set("stressor.tree_hit_ratio", c["campaign.tree_hits"]/est, int(est))
		ms.set("stressor.tree_rebuilds", c["campaign.tree_rebuilds"]/rounds, int(rounds))
		ms.set("stressor.tree_evictions", c["campaign.tree_evictions"]/rounds, int(rounds))
		// The tree_nodes gauge reads 0 once sessions have closed; what
		// the sessions of a round retained at their end is every node
		// inserted and not evicted.
		ms.set("stressor.tree_nodes", (c["campaign.tree_extends"]+c["campaign.tree_rebuilds"]-c["campaign.tree_evictions"])/rounds, int(rounds))
		ms.set("stressor.early_exit_ratio", c["campaign.early_exits"]/n, int(n))
	}
	if kn := t.kernScenarios; kn > 0 {
		ms.set("sim.activations_per_scenario", t.kern["sim.activations"]/kn, int(kn))
		ms.set("sim.delta_cycles_per_scenario", t.kern["sim.delta_cycles"]/kn, int(kn))
		ms.set("sim.run_ns_per_scenario", t.kern["sim.run_ns"]/kn, int(kn))
	}
	if runs := c["campaign.runs"]; runs > 0 {
		fails := c["campaign.outcomes/sdc"] + c["campaign.outcomes/timing-violation"] + c["campaign.outcomes/safety-critical"]
		ms.set("fault.failures_per_kscenario", 1000*fails/runs, int(runs))
	}
}

// setSimulated records the simulated-time numbers from the planned
// simulated picoseconds of the window (horizon minus fork, summed) and
// what early exits saved of it.
func (l *layerStats) setSimulated(plannedPS float64) {
	n := float64(l.win.scenarios)
	if plannedPS <= 0 || n == 0 {
		return
	}
	// The counter is named _ns but accumulates sim.Time, picoseconds.
	saved := l.reg["campaign.early_exit_saved_sim_ns"]
	if l.ms.has("stressor.early_exit_ratio") {
		l.ms.set("stressor.early_exit_saved_sim_share", saved/plannedPS, int(n))
	}
	simMS := (plannedPS - saved) / 1e9 / n
	l.ms.set("sim.simulated_ms_per_scenario", simMS, int(n))
	if l.kernScenarios > 0 && simMS > 0 {
		l.ms.set("sim.host_ns_per_sim_ms", l.kern["sim.run_ns"]/l.kernScenarios/simMS, int(l.kernScenarios))
	}
}

// budgetRow is one line of the time-budget table.
type budgetRow struct {
	layer string
	share float64
}

// budget prints the workload's time-budget table — the share of round
// wall each layer's spans cover, self time only — and returns the
// unattributed share.
func (t *traced) budget(out io.Writer) float64 {
	T := t.sum(kindRound)
	if T == 0 {
		return 0
	}
	lanes := math.Max(1, float64(t.tr.laneCount()))
	var rows []budgetRow
	add := func(layer string, ns, capacity float64) {
		if ns > 0 && capacity > 0 {
			rows = append(rows, budgetRow{layer, ns / capacity})
		}
	}
	model := "caps"
	if t.name == wlECU {
		model = "ecu"
	}
	switch t.name {
	case wlDaemon:
		sim := t.daemonSimNS
		add("campaignd (submit)", t.sum(kindSubmit), T)
		add("campaignd (queue, journal, store: events wait minus simulation)", t.sum(kindWait)-sim, T)
		add("stressor+caps (campaign.elapsed_ns inside the daemon)", sim, T)
		add("campaignd (result fetch)", t.sum(kindFetch), T)
	case wlFabric:
		capacity := lanes * T
		http := t.sum(kindLease, kindFlush)
		handler := t.sum(kindHandler)
		add("caps (scenario run)", t.sum(kindRun), capacity)
		add("fabric (coordinator handlers, shard journals, merge)", handler, capacity)
		add("fabric (HTTP round trip outside the handler)", http-handler, capacity)
		add("bench (resolver: universe rebuild per lease)", t.sum(kindResolve), capacity)
		add("fabric+stressor (worker self: engine, universe hash, poll)", t.sum(kindWorker)-t.sum(kindRun)-http-t.sum(kindResolve), capacity)
	default:
		capacity := lanes * T
		children := t.sum(kindRun, kindAppend, kindNext, kindObserve)
		add(model+" (scenario run)", t.sum(kindRun), capacity)
		add("journal (append)", t.sum(kindAppend), capacity)
		add("journal (close+fsync)", t.sum(kindSync), T)
		add("scenario (next+observe)", t.sum(kindNext, kindObserve), capacity)
		add("stressor (engine self: dispatch, sort, assemble, idle workers)", lanes*t.sum(kindEngine)-children, capacity)
	}
	var covered float64
	for _, r := range rows {
		covered += r.share
	}
	unattributed := 1 - covered
	if unattributed < 0 {
		unattributed = 0
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].share > rows[j].share })
	fmt.Fprintf(out, "  time budget of %s (share of round wall, %d rounds, %d worker lanes):\n", t.name, len(t.win.rounds), int(lanes))
	for _, r := range rows {
		fmt.Fprintf(out, "    %6.2f %%  %s\n", 100*r.share, r.layer)
	}
	fmt.Fprintf(out, "    %6.2f %%  unattributed\n", 100*unattributed)
	return unattributed
}
