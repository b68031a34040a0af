package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/caps"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stressor"
)

const (
	fabricWorkers   = 2
	fabricHeartbeat = 100 * time.Millisecond
	fabricPoll      = time.Millisecond
)

// workerLane is the trace row of fabric worker i's own spans (its
// scenario runs take the ordinary run lanes).
func workerLane(i int) int16 { return int16(generatorLane + 10 + i) }

// fabricSpec is the opaque lease spec the benchmark's resolver
// understands: the injection instants of the permanent sweep.
type fabricSpec struct {
	TimesPS []uint64 `json:"times_ps"`
}

// fabricSweep is fabric-2w-sweep: the caps-perm-sweep universe through
// a coordinator and two workers over loopback HTTP. A fresh coordinator
// serves every round behind one listener.
type fabricSweep struct {
	e         env
	runner    *caps.Runner
	scenarios []fault.Scenario
	spec      json.RawMessage
	oracle    oracle
	lb        *loopback
	handler   atomic.Pointer[http.Handler]
	clients   [fabricWorkers]*http.Client
	rounds    int
	// lastDir holds the latest round's shard journals until the next
	// round, for the merge probe.
	lastDir string

	// inproc is the wall time of the same universe through the engine in
	// process, measured at set-up on the same runner.
	inproc time.Duration
}

func (f *fabricSweep) setup(in *inputs, e env) error {
	f.e = e
	r, err := newCaps(capsHorizon)
	if err != nil {
		return err
	}
	f.runner = r
	f.scenarios = sweepUniverse(r.Universe, in.CapsTimes, nil)
	spec := fabricSpec{TimesPS: make([]uint64, len(in.CapsTimes))}
	for i, t := range in.CapsTimes {
		spec.TimesPS[i] = uint64(t)
	}
	if f.spec, err = json.Marshal(spec); err != nil {
		return err
	}
	naive, err := newCaps(capsHorizon)
	if err != nil {
		return err
	}
	defer naive.Close()
	naive.ReuseOff = true
	f.oracle.prime(naive.RunFunc(), f.scenarios)

	// The in-process run of the same universe: its outcomes fix the
	// digest the merged result must reproduce, and its wall time is the
	// base of fabric.overhead_ratio.
	start := time.Now()
	res, err := (&stressor.Campaign{
		Name: wlFabric, Run: r.RunFunc(), Workers: engineWorkers,
		Checkpoints: true, Checkpointer: r, CheckpointTree: true,
	}).Execute(f.scenarios)
	if err != nil {
		return err
	}
	f.inproc = time.Since(start)
	if err := f.oracle.checkResult(res); err != nil {
		return err
	}

	if f.lb, err = listenLoopback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*f.handler.Load()).ServeHTTP(w, r)
	})); err != nil {
		return err
	}
	for i := range f.clients {
		lane := workerLane(i)
		f.clients[i] = oneConnClient(func(rt http.RoundTripper) http.RoundTripper {
			if e.tr == nil {
				return rt
			}
			return tracedTransport{inner: rt, t: e.tr, lane: lane}
		})
	}
	return warmUp(f)
}

// resolve is the workers' caching resolver: one warm runner, and the
// scenario list rebuilt from the spec's instants on every lease.
func (f *fabricSweep) resolve(lane int16, raw json.RawMessage) (*fabric.Resolved, error) {
	defer f.e.tr.add(kindResolve, lane, f.e.tr.now())
	var spec fabricSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, err
	}
	times := make([]sim.Time, len(spec.TimesPS))
	for i, t := range spec.TimesPS {
		times[i] = sim.Time(t)
	}
	c := &stressor.Campaign{
		Run:         f.runner.RunFunc(),
		Checkpoints: true, Checkpointer: f.runner, CheckpointTree: true,
	}
	if tr := f.e.tr; tr != nil {
		c.Metrics = f.e.reg
		c.Run = tr.tracedRun(c.Run)
		c.Checkpointer = tracedCheckpointer{TreeCheckpointer: f.runner, t: tr}
	}
	return &fabric.Resolved{Scenarios: sweepUniverse(f.runner.Universe, times, nil), Campaign: c}, nil
}

func (f *fabricSweep) round() roundOut {
	f.rounds++
	if f.lastDir != "" {
		os.RemoveAll(f.lastDir)
	}
	f.lastDir = filepath.Join(f.e.dir, fmt.Sprintf("round-%d", f.rounds))
	start := time.Now()
	coord, err := fabric.NewCoordinator(fabric.CoordConfig{
		Campaign: wlFabric, Spec: f.spec, Scenarios: f.scenarios,
		Shards: fabricShards, DataDir: f.lastDir, Codec: journal.Binary, LeaseTTL: time.Minute,
	})
	if err != nil {
		return roundOut{err: err}
	}
	defer coord.Close()
	h := coord.Handler()
	if f.e.tr != nil {
		h = f.e.tr.tracedHandler(h)
	}
	f.handler.Store(&h)

	errs := make([]error, fabricWorkers)
	var wg sync.WaitGroup
	for i := range errs {
		lane := workerLane(i)
		w, err := fabric.NewWorker(fabric.WorkerConfig{
			Name: fmt.Sprintf("w%d", i), Coordinator: f.lb.url,
			Resolve:   func(raw json.RawMessage) (*fabric.Resolved, error) { return f.resolve(lane, raw) },
			Heartbeat: fabricHeartbeat, Poll: fabricPoll, Client: f.clients[i],
		})
		if err != nil {
			return roundOut{err: err}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer f.e.tr.add(kindWorker, lane, f.e.tr.now())
			errs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()
	out := roundOut{scenarios: len(f.scenarios), wall: time.Since(start)}
	for _, err := range errs {
		if err != nil {
			out.err = err
			return out
		}
	}
	res, done, err := coord.Result()
	switch {
	case err != nil:
		out.err = err
	case !done:
		out.err = fmt.Errorf("workers returned before the campaign finalized")
	default:
		out.err = f.oracle.checkResult(res)
	}
	return out
}

func (f *fabricSweep) instrument(reg *obs.Registry) bool {
	f.runner.Instrument(reg, nil)
	return true
}

func (f *fabricSweep) close() {
	if f.lb != nil {
		f.lb.close()
	}
	for _, c := range f.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if f.runner != nil {
		f.runner.Close()
	}
}
