package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/caps"
	"repro/internal/ecu"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// engineWorkers is the worker-pool size of every engine the benchmark
// drives. The host has two cores; no workload runs more busy threads.
const engineWorkers = 2

// Workload names. Later issues refer to them; they do not change.
const (
	wlCapsPerm      = "caps-perm-sweep"
	wlCapsTransient = "caps-transient-ee"
	wlECU           = "ecu-seu-ee"
	wlAdaptive      = "adaptive-novelty"
	wlDaemon        = "daemon-e8-loop"
	wlFabric        = "fabric-2w-sweep"
)

var workloadNames = []string{wlCapsPerm, wlCapsTransient, wlECU, wlAdaptive, wlDaemon, wlFabric}

// workloadWhy records, in one line each, why a workload exists: which
// layers it stresses and which mechanism it exercises or bypasses.
var workloadWhy = map[string]string{
	wlCapsPerm:      "Permanent faults never reconverge, so the kernel, caps and can do nearly all the work and early-exit and hashing do none: the bypass workload for every early-exit or hash change.",
	wlCapsTransient: "Most transient pulses reconverge and stop early, so snapshot/restore, state hash, checkpoint tree and engine dispatch dominate and simulation is small: where tree and hash changes show.",
	wlECU:           "The same sim and stressor layers on a model with large memory state, where hashing the ECC memory is nearly all of a run: a stride or hash change that helps CAPS and costs ECU shows here.",
	wlAdaptive:      "The only workload through the second engine (AdaptiveCampaign) and the scenario layer (strategy, mutator, signature index), on the plain run path without checkpoints.",
	wlDaemon:        "One client in a closed loop against campaignd over loopback HTTP; a third of a turnaround is campaignd's own: parsing the inline spec, store writes, JSONL journal, fsyncs, result encoding.",
	wlFabric:        "The caps-perm-sweep universe through a coordinator and two workers over loopback HTTP; leases, flushes, shard journals and merge come on top of work caps-perm-sweep already measures.",
}

// roundOut is one whole campaign: spec or universe in, classified and
// merged result out.
type roundOut struct {
	// scenarios counts classified scenarios.
	scenarios int
	// wall is the campaign's wall time, journal create and sync included.
	wall time.Duration
	// err is non-nil when the round failed: engine error, panic,
	// timeout, HTTP non-2xx, or any oracle or digest mismatch.
	err error
}

// env is what a set-up is given. tr and reg are nil in the untraced
// pass, and then the workload attaches no wrapper and no registry. reg
// is the campaigns' registry; the kernel Instrument is attached for one
// round only (see kernelRound), because it slows every activation.
type env struct {
	dir string
	tr  *tracer
	reg *obs.Registry
}

// workload is one named benchmark workload.
type workload interface {
	// setup builds the runner, does the golden run, generates inputs,
	// primes the oracle and runs one discarded warm-up round.
	setup(in *inputs, e env) error
	round() roundOut
	// layers adds the per-layer numbers only this workload's seams give.
	layers(l *layerStats)
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case wlCapsPerm:
		return &sweep{name: name, journal: true}, nil
	case wlCapsTransient:
		return &sweep{name: name, transient: true, earlyExit: true}, nil
	case wlECU:
		return &sweep{name: name, ecu: true, earlyExit: true}, nil
	case wlAdaptive:
		return &adaptive{}, nil
	case wlDaemon:
		return &daemon{}, nil
	case wlFabric:
		return &fabricSweep{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// warmUp runs the discarded round that ends every set-up. It also fixes
// the digest later rounds are compared with.
func warmUp(w workload) error {
	if r := w.round(); r.err != nil {
		return fmt.Errorf("warm-up round: %w", r.err)
	}
	return nil
}

// prototype is the part of caps.Runner and ecu.Runner a sweep uses.
type prototype interface {
	stressor.TreeCheckpointer
	RunFunc() stressor.RunFunc
	Universe(start sim.Time) []fault.Descriptor
	Close()
}

func newCaps(horizon sim.Time) (*caps.Runner, error) {
	return caps.NewRunner(caps.Protected(), caps.NormalDriving(), horizon)
}

// buildPrototype builds a sweep's runner, golden run included. naive
// selects the oracle's form: rebuild per run, no reuse, no checkpoints.
func buildPrototype(isECU, naive bool) (prototype, sim.Time, error) {
	if isECU {
		cfg := ecu.DefaultRunnerConfig()
		r, err := ecu.NewRunner(cfg)
		if err != nil {
			return nil, 0, err
		}
		r.ReuseOff = naive
		return r, cfg.Horizon, nil
	}
	r, err := newCaps(capsHorizon)
	if err != nil {
		return nil, 0, err
	}
	r.ReuseOff = naive
	return r, capsHorizon, nil
}

// sweep is a fixed-universe campaign on one prototype through the
// checkpoint tree: caps-perm-sweep, caps-transient-ee and ecu-seu-ee.
type sweep struct {
	name      string
	ecu       bool
	transient bool
	earlyExit bool
	journal   bool

	e         env
	proto     prototype
	horizon   sim.Time
	scenarios []fault.Scenario
	universe  string
	oracle    oracle
	rounds    int

	buildNS, universeNS float64
}

func (s *sweep) setup(in *inputs, e env) error {
	s.e = e
	t0 := time.Now()
	proto, horizon, err := buildPrototype(s.ecu, false)
	if err != nil {
		return err
	}
	s.buildNS = float64(time.Since(t0))
	s.proto, s.horizon = proto, horizon
	naive, _, err := buildPrototype(s.ecu, true)
	if err != nil {
		return err
	}
	defer naive.Close()
	times, pulses := in.CapsTimes, []sim.Time(nil)
	if s.ecu {
		times = in.ECUTimes
	} else if s.transient {
		pulses = in.Pulses
	}
	t0 = time.Now()
	s.scenarios = sweepUniverse(proto.Universe, times, pulses)
	s.universeNS = float64(time.Since(t0))
	s.universe = stressor.UniverseHash(s.scenarios)
	s.oracle.prime(naive.RunFunc(), s.scenarios)
	return warmUp(s)
}

func (s *sweep) round() roundOut {
	s.rounds++
	c := &stressor.Campaign{
		Name: s.name, Run: s.proto.RunFunc(), Workers: engineWorkers,
		Checkpoints: true, Checkpointer: s.proto, CheckpointTree: true, EarlyExit: s.earlyExit,
	}
	tr := s.e.tr
	if tr != nil {
		c.Metrics = s.e.reg
		c.Run = tr.tracedRun(c.Run)
		c.Checkpointer = tracedCheckpointer{TreeCheckpointer: s.proto, t: tr}
	}
	start := time.Now()
	var jw *journal.Writer
	if s.journal {
		path := filepath.Join(s.e.dir, fmt.Sprintf("round-%d.journal", s.rounds))
		var err error
		jw, err = journal.CreateCodec(path, journal.Header{
			Campaign: s.name, Shards: 1, Total: len(s.scenarios), Universe: s.universe,
		}, journal.Binary)
		if err != nil {
			return roundOut{err: err}
		}
		defer os.Remove(path)
		c.Journal = jw
		if tr != nil {
			c.Journal = tracedSink{inner: jw, t: tr}
		}
	}
	t0 := tr.now()
	res, err := c.Execute(s.scenarios)
	tr.add(kindEngine, generatorLane, t0)
	if jw != nil {
		t0 = tr.now()
		if cerr := jw.Close(); err == nil {
			err = cerr
		}
		tr.add(kindSync, generatorLane, t0)
	}
	out := roundOut{scenarios: len(s.scenarios), wall: time.Since(start), err: err}
	if err == nil {
		out.err = s.oracle.checkResult(res)
	}
	return out
}

// close is also called on a set-up that failed part way.
func (s *sweep) close() {
	if s.proto != nil {
		s.proto.Close()
	}
}

// instrument attaches the kernel Instrument of the CAPS runner to reg
// (nil detaches). The ECU runner has none.
func (s *sweep) instrument(reg *obs.Registry) bool {
	c, ok := s.proto.(*caps.Runner)
	if ok {
		c.Instrument(reg, nil)
	}
	return ok
}

// adaptive is adaptive-novelty: the second engine and the scenario
// layer, on the plain run path.
type adaptive struct {
	e        env
	runner   *caps.Runner
	universe []fault.Descriptor
	seed     int64
	oracle   oracle
	// last is the latest round's result, for the per-layer ratios.
	last *stressor.AdaptiveResult
}

func (a *adaptive) setup(in *inputs, e env) error {
	a.e, a.seed = e, in.Seed
	r, err := newCaps(adaptiveHorizon)
	if err != nil {
		return err
	}
	a.runner = r
	a.universe = r.Universe(adaptiveInject)
	// The strategy decides the scenario stream as it runs, so the oracle
	// takes its sample from a first round and replays it naively.
	first, err := a.execute(nil)
	if err != nil {
		return err
	}
	naive, err := newCaps(adaptiveHorizon)
	if err != nil {
		return err
	}
	defer naive.Close()
	naive.ReuseOff = true
	scs := make([]fault.Scenario, len(first.Outcomes))
	for i, o := range first.Outcomes {
		scs[i] = o.Scenario
	}
	a.oracle.prime(naive.SignedRunFunc(), scs)
	return warmUp(a)
}

// execute runs one budgeted adaptive campaign. tr is nil for the
// oracle's sampling round.
func (a *adaptive) execute(tr *tracer) (*stressor.AdaptiveResult, error) {
	nv := scenario.NewNovelty(a.universe, 4*adaptiveBudget, rand.New(rand.NewSource(a.seed)))
	nv.Mutator().Window = adaptiveHorizon
	c := &stressor.AdaptiveCampaign{
		Name: wlAdaptive, Run: a.runner.SignedRunFunc(), Source: nv,
		Workers: engineWorkers, MaxRuns: adaptiveBudget, Prune: true,
	}
	if tr != nil {
		c.Metrics = a.e.reg
		c.Run = tr.tracedRun(c.Run)
		c.Source = tracedSource{inner: nv, t: tr}
	}
	t0 := tr.now()
	res, err := c.Execute()
	tr.add(kindEngine, generatorLane, t0)
	return res, err
}

func (a *adaptive) round() roundOut {
	start := time.Now()
	res, err := a.execute(a.e.tr)
	out := roundOut{wall: time.Since(start), err: err}
	if err != nil {
		return out
	}
	a.last = res
	out.scenarios = len(res.Outcomes)
	out.err = a.oracle.checkResult(res.Result())
	return out
}

func (a *adaptive) close() {
	if a.runner != nil {
		a.runner.Close()
	}
}

func (a *adaptive) instrument(reg *obs.Registry) bool {
	a.runner.Instrument(reg, nil)
	return true
}
