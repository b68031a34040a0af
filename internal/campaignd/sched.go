package campaignd

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/caps"
	"repro/internal/journal"
	"repro/internal/obs"
)

// Config parameterizes a Scheduler.
type Config struct {
	// DataDir is the durable store root.
	DataDir string
	// QueueCap bounds the number of queued runs (default 256).
	QueueCap int
	// RunnerCacheCap bounds how many distinct warm prototype
	// configurations the daemon keeps alive (default 4, LRU-evicted).
	RunnerCacheCap int
	// ProgressInterval rate-limits the /events progress stream
	// (0 selects obs.DefaultProgressInterval, negative disables
	// limiting — used by tests).
	ProgressInterval time.Duration
	// Logger, when non-nil, receives structured operational logs
	// (run lifecycle, failures, flight dumps).
	Logger *slog.Logger
	// SlowScenario, when positive, marks any single scenario run at or
	// over this wall-clock budget in the flight recorder.
	SlowScenario time.Duration
	// FlightCap sizes the flight-recorder ring (default
	// obs.DefaultFlightCap).
	FlightCap int
	// FlightDump, when non-nil, receives the flight-recorder text dump
	// on executor panic and on DumpFlight (capsimd points it at
	// stderr for SIGQUIT forensics).
	FlightDump io.Writer
}

// Scheduler owns the daemon's run lifecycle: a FIFO queue fed by
// Submit (multi-tenant — any number of clients, strictly ordered), a
// single executor goroutine that runs one campaign at a time so
// concurrent submissions never interleave worker slots, and the warm
// runner cache that carries kernel/prototype slot pools, checkpoint
// node buffers and golden trajectories across runs. Durability is delegated to the
// Store: every campaign is journaled, so stopping the daemon (or
// crashing it) mid-run leaves a resumable run that the next
// Scheduler picks up on construction.
type Scheduler struct {
	cfg   Config
	store *Store
	cache *runnerCache

	queue  chan string
	stopCh chan struct{}
	done   chan struct{}
	halt   atomic.Bool

	mu   sync.Mutex // guards hubs, enq, specs, names, and Submit's id-allocate+enqueue pairing
	hubs map[string]*hub
	enq  map[string]time.Time // run id -> enqueue instant (queue-wait metric)
	// specs holds what Submit parsed until the executor takes it (a run
	// requeued from an earlier daemon's store is parsed from there), names
	// the campaign names status answers with.
	specs map[string]*Spec
	names map[string]string

	// Telemetry plane. agg is the daemon-wide aggregate registry served
	// at GET /metrics; live holds the in-flight run's registry (and
	// optional trace recorder) so mid-flight scrapes see the campaign
	// moving — one run's, because the executor runs one campaign at a
	// time; flight is the black-box event ring.
	agg           *obs.Registry
	prom          *obs.PromEncoder
	flight        *obs.FlightRecorder
	queueDepth    *obs.Gauge
	queueWait     *obs.Histogram
	eventsDropped *obs.Counter

	liveMu sync.Mutex
	live   struct {
		id    string
		reg   *obs.Registry
		trace *obs.TraceRecorder
	}
}

// NewScheduler opens the store under cfg.DataDir and re-queues every
// pending run found there — the crash-recovery path: an in-flight
// run's journal is picked up by the executor exactly as capsim
// -resume would pick it up.
func NewScheduler(cfg Config) (*Scheduler, error) {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	if cfg.RunnerCacheCap <= 0 {
		cfg.RunnerCacheCap = defaultRunnerCacheCap
	}
	store, err := OpenStore(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	agg := obs.NewRegistry()
	s := &Scheduler{
		cfg:    cfg,
		store:  store,
		cache:  newRunnerCache(cfg.RunnerCacheCap, agg),
		queue:  make(chan string, cfg.QueueCap),
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
		hubs:   map[string]*hub{},
		enq:    map[string]time.Time{},
		specs:  map[string]*Spec{},
		names:  map[string]string{},
		agg:    agg,
		prom:   obs.NewPromEncoder(),
		flight: obs.NewFlightRecorder(cfg.FlightCap),
	}
	// Pre-register every daemon-wide family so the /metrics document has
	// a deterministic shape from the first scrape (goldenfile-able), not
	// one that grows as states are first reached.
	s.queueDepth = agg.Gauge("campaignd.queue_depth")
	s.queueWait = agg.Histogram("campaignd.queue_wait_ns")
	s.eventsDropped = agg.Counter("campaignd.events_dropped")
	for _, st := range []string{StateDone, StateFailed, "interrupted"} {
		agg.Counter("campaignd.runs", obs.L("state", st))
	}
	ids, err := store.List()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if state, err := store.State(id); err != nil || state != StateQueued {
			continue
		}
		if len(s.queue) == cap(s.queue) {
			return nil, fmt.Errorf("campaignd: %d pending runs exceed the queue capacity %d", len(s.queue)+1, cfg.QueueCap)
		}
		s.hubs[id] = newHub(id, StateQueued, s.eventsDropped)
		s.enq[id] = time.Now()
		s.queue <- id
		s.flight.Record("run.requeue", id, "pending run from a previous daemon")
		s.logInfo("requeued pending run", "run", id)
	}
	s.queueDepth.Set(float64(len(s.queue)))
	return s, nil
}

// Start launches the executor goroutine.
func (s *Scheduler) Start() { go s.loop() }

// Store exposes the underlying run store (read paths of the server).
func (s *Scheduler) Store() *Store { return s.store }

// Submit persists a new run and enqueues it. rawSpec must be the
// bytes spec was parsed from; they are stored verbatim so a restart
// re-parses exactly what the client sent. This process's executor runs
// spec itself, which must not be modified afterwards.
func (s *Scheduler) Submit(spec *Spec, rawSpec []byte) (string, error) {
	if s.halt.Load() {
		return "", fmt.Errorf("campaignd: daemon is shutting down")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == cap(s.queue) {
		return "", fmt.Errorf("campaignd: run queue is full (%d queued)", cap(s.queue))
	}
	id, err := s.store.NewRun(rawSpec)
	if err != nil {
		return "", err
	}
	s.hubs[id] = newHub(id, StateQueued, s.eventsDropped)
	s.enq[id] = time.Now()
	s.specs[id], s.names[id] = spec, spec.Campaign
	s.queue <- id
	s.queueDepth.Set(float64(len(s.queue)))
	s.flight.Record("run.submit", id, spec.Campaign)
	s.logInfo("queued run", "run", id, "campaign", spec.Campaign)
	return id, nil
}

// Stop halts the daemon gracefully: the in-flight campaign stops
// between scenarios (its journal stays resumable), queued runs stay
// queued on disk, and Stop returns once the executor has exited.
func (s *Scheduler) Stop() {
	if s.halt.Swap(true) {
		<-s.done
		return
	}
	close(s.stopCh)
	<-s.done
	s.cache.drain()
}

// CampaignName returns the campaign name of run id ("" when its stored
// spec does not parse), reading the store only the first time it is
// asked about a run this process did not accept.
func (s *Scheduler) CampaignName(id string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	name, ok := s.names[id]
	if !ok {
		if spec, err := s.store.ReadSpec(id); err == nil {
			name = spec.Campaign
			s.names[id] = name
		}
	}
	return name
}

// Hub returns the live event hub for a run, or nil when the daemon
// holds none: the run is terminal (done or failed, in this process or
// an earlier one) and the store answers for it.
func (s *Scheduler) Hub(id string) *hub {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hubs[id]
}

// RunnerCacheStats reports warm-runner reuse across runs.
func (s *Scheduler) RunnerCacheStats() (builds, hits int64) {
	return int64(s.cache.builds.Value()), int64(s.cache.hits.Value())
}

// Flight exposes the daemon's flight recorder (the /debug/flight and
// SIGQUIT surface).
func (s *Scheduler) Flight() *obs.FlightRecorder { return s.flight }

// WriteProm renders the daemon's live telemetry — the aggregate
// registry plus the in-flight run's registry — in the Prometheus text
// exposition format (GET /metrics). The encoder caches rendered
// series, so steady-state scrapes do not allocate.
func (s *Scheduler) WriteProm(w io.Writer) error {
	s.liveMu.Lock()
	reg := s.live.reg
	s.liveMu.Unlock()
	return s.prom.Encode(w, s.agg, reg)
}

// LiveMetrics returns the in-flight registry of a running campaign, or
// nil once the run is terminal (GET /runs/{id}/metrics?live=1).
func (s *Scheduler) LiveMetrics(id string) *obs.Registry {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	if s.live.id != id {
		return nil
	}
	return s.live.reg
}

// LiveTrace returns the in-flight trace recorder of a running
// traced campaign, or nil.
func (s *Scheduler) LiveTrace(id string) *obs.TraceRecorder {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	if s.live.id != id {
		return nil
	}
	return s.live.trace
}

// setLive installs (or, with nils, clears) a run's live telemetry.
func (s *Scheduler) setLive(id string, reg *obs.Registry, tr *obs.TraceRecorder) {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	s.live.id, s.live.reg, s.live.trace = id, reg, tr
}

// DumpFlight writes the flight-recorder contents to cfg.FlightDump
// (no-op without one) — the SIGQUIT / executor-panic forensic path.
func (s *Scheduler) DumpFlight(reason string) {
	if s.cfg.FlightDump == nil {
		return
	}
	fmt.Fprintf(s.cfg.FlightDump, "campaignd flight dump (%s):\n", reason)
	if err := s.flight.WriteText(s.cfg.FlightDump); err != nil {
		s.logError("flight dump failed", "err", err)
	}
}

func (s *Scheduler) logInfo(msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info(msg, args...)
	}
}

func (s *Scheduler) logError(msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Error(msg, args...)
	}
}

// loop is the executor: strictly FIFO, one campaign at a time.
func (s *Scheduler) loop() {
	defer close(s.done)
	for {
		select {
		case <-s.stopCh:
			return
		default:
		}
		select {
		case <-s.stopCh:
			return
		case id := <-s.queue:
			s.execute(id)
		}
	}
}

// publish fans an event out through the run's hub. A final event takes
// the run's live telemetry down first: whoever waited for it may scrape
// next, and a terminal run is not on /metrics.
func (s *Scheduler) publish(e Event) {
	if e.Final {
		s.setLive(e.Run, nil, nil)
	}
	if h := s.Hub(e.Run); h != nil {
		h.publish(e)
	}
}

// finish releases the hub of a run the store has just recorded as done
// or failed, then publishes the final event through it: every subscriber
// is handed the event, and whoever has seen it finds no hub — the store
// answers for the run from here on (handleEvents synthesizes the same
// event from it). An interrupted run is published, not finished — it is
// still queued on disk.
func (s *Scheduler) finish(e Event) {
	s.mu.Lock()
	h := s.hubs[e.Run]
	delete(s.hubs, e.Run)
	s.mu.Unlock()
	s.setLive(e.Run, nil, nil)
	if h != nil {
		h.publish(e)
	}
}

// execute runs one campaign end to end: warm runner lookup, scenario
// materialization, journal create-or-resume, Execute, result (or
// error) persistence. A daemon shutdown mid-campaign leaves the run
// pending with a valid journal; everything else ends terminal.
func (s *Scheduler) execute(id string) {
	// Queue-wait and depth: the run leaves the queue now.
	s.mu.Lock()
	if t0, ok := s.enq[id]; ok {
		delete(s.enq, id)
		s.queueWait.Observe(uint64(time.Since(t0)))
	}
	spec := s.specs[id]
	delete(s.specs, id)
	s.mu.Unlock()
	s.queueDepth.Set(float64(len(s.queue)))

	defer s.setLive(id, nil, nil)
	fail := func(err error) {
		msg := err.Error()
		e := Event{Type: "state", Run: id, State: StateFailed, Error: msg, Final: true}
		s.agg.Counter("campaignd.runs", obs.L("state", StateFailed)).Inc()
		s.flight.Record("run.failed", id, msg)
		s.logError("run failed", "run", id, "err", msg)
		if werr := s.store.WriteRunError(id, msg); werr != nil {
			// Unrecorded, the run is still queued on disk: its hub stays.
			s.logError("recording failure", "run", id, "err", werr)
			s.publish(e)
		} else {
			s.finish(e)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			s.flight.Recordf("executor.panic", id, "%v", r)
			fail(fmt.Errorf("internal error: %v", r))
			s.DumpFlight("executor panic")
		}
	}()

	if spec == nil {
		var err error
		if spec, err = s.store.ReadSpec(id); err != nil {
			fail(err)
			return
		}
	}
	s.publish(Event{Type: "state", Run: id, State: StateRunning})
	s.flight.Record("run.start", id, spec.Campaign)
	runner, err := s.cache.get(spec)
	if err != nil {
		fail(err)
		return
	}
	c, scenarios, err := spec.Build(runner)
	if err != nil {
		fail(err)
		return
	}
	c.Flight, c.SlowScenario = s.flight, s.cfg.SlowScenario
	c.Halt = func(int) bool { return s.halt.Load() }
	c.Progress = func(u obs.ProgressUpdate) {
		s.publish(Event{
			Type: "progress", Run: id,
			Completed: u.Completed, Total: u.Total, Failures: u.Failures,
			RunsPerSec: u.RunsPerSec, ETAMillis: u.ETA.Milliseconds(),
		})
	}
	c.ProgressInterval = s.cfg.ProgressInterval
	resume, jw, err := journal.Open(s.store.JournalPath(id), c.JournalHeader(scenarios))
	if err != nil {
		fail(err)
		return
	}
	c.Journal, c.Resume = jw, resume

	c.Metrics = obs.NewRegistry()
	if spec.Trace {
		c.Trace = obs.NewTraceRecorder()
	}
	// Expose the run's registry (and trace) while it executes: a
	// mid-flight GET /metrics or ?live=1 sees counters moving before
	// the run completes.
	s.setLive(id, c.Metrics, c.Trace)
	if s.cfg.Logger != nil {
		c.Log = s.cfg.Logger.With("run", id)
	}
	res, err := c.Execute(scenarios)
	if cerr := jw.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fail(err)
		return
	}
	if res.Halted {
		// Shutdown landed mid-campaign: the journal holds everything
		// completed so far, the run stays pending, and the next daemon
		// resumes it to the byte-identical result.
		s.publish(Event{Type: "state", Run: id, State: "interrupted", Final: true})
		s.agg.Counter("campaignd.runs", obs.L("state", "interrupted")).Inc()
		s.flight.Recordf("run.interrupted", id, "%d outcomes journaled", len(res.Outcomes))
		s.logInfo("run interrupted by shutdown", "run", id, "journaled", len(res.Outcomes))
		return
	}

	// The metrics and trace go first: result.json makes the run done, and
	// whoever sees it done may ask for them next.
	persist := func(doc string, encode func(io.Writer) error) {
		var buf bytes.Buffer
		if err := encode(&buf); err == nil {
			if werr := s.store.WriteDoc(id, doc, buf.Bytes()); werr != nil {
				s.logError("writing "+doc, "run", id, "err", werr)
			}
		}
	}
	persist(DocMetrics, c.Metrics.WriteJSON)
	if c.Trace != nil {
		persist(DocTrace, c.Trace.WriteJSON)
	}
	sum := spec.Summary(len(scenarios), res)
	if err := s.store.WriteResult(id, BuildResultDoc(id, sum.Scenarios, res, sum)); err != nil {
		fail(err)
		return
	}
	s.agg.Counter("campaignd.runs", obs.L("state", StateDone)).Inc()
	s.flight.Recordf("run.done", id, "%s", res.Tally)
	s.logInfo("run done", "run", id, "tally", res.Tally.String())
	s.finish(Event{Type: "state", Run: id, State: StateDone, Final: true})
}

// MergeRuns reassembles the shard journals of the given completed
// runs into the result the unsharded campaign would have produced
// (the POST /merge path), via stressor.Merge. The universe is rebuilt
// from spec — which must carry the same prototype knobs the shards
// ran with — on a warm cached runner.
func (s *Scheduler) MergeRuns(spec *Spec, runIDs []string) (*ResultDoc, error) {
	if len(runIDs) == 0 {
		return nil, fmt.Errorf("campaignd: merge of zero runs")
	}
	js := make([]*journal.Journal, len(runIDs))
	for i, id := range runIDs {
		state, err := s.store.State(id)
		if err != nil {
			return nil, err
		}
		if state != StateDone {
			return nil, fmt.Errorf("campaignd: run %s is %s, not done — only completed runs merge", id, state)
		}
		if js[i], err = journal.Read(s.store.JournalPath(id)); err != nil {
			return nil, err
		}
	}
	runner, err := s.cache.get(spec)
	if err != nil {
		return nil, err
	}
	res, total, err := spec.Merge(runner, js)
	if err != nil {
		return nil, err
	}
	return BuildResultDoc("merge", total, res, spec.Summary(total, res)), nil
}

// defaultRunnerCacheCap is how many distinct prototype configurations a
// runner cache keeps warm unless Config.RunnerCacheCap says otherwise.
const defaultRunnerCacheCap = 4

// runnerCache keeps warm prototype runners keyed by Spec.RunnerKey —
// the daemon's scheduler and a fabric worker's resolver each own one.
// A hit hands back the same *caps.Runner — slot pools, golden
// observation, checkpoint node pool and golden trajectories intact —
// so back-to-back runs pay zero re-elaboration. Checkpoint sessions
// themselves are per run: their metrics sink is the run's registry.
// Bounded, LRU-evicted; eviction closes the runner, so with a capacity
// of two or more the runner of the most recent get is never the one
// closed by the next.
type runnerCache struct {
	cap int

	mu      sync.Mutex
	entries map[string]*cacheEntry
	tick    int64
	evicted int // runners closed to make room

	// builds and hits live in the daemon's aggregate registry
	// (GET /metrics); RunnerCacheStats reads the same pair. A nil
	// registry (the fabric resolver) keeps them private.
	builds, hits *obs.Counter
}

func newRunnerCache(cap int, reg *obs.Registry) *runnerCache {
	return &runnerCache{
		cap: cap, entries: map[string]*cacheEntry{},
		builds: reg.Counter("campaignd.runner_cache_builds"),
		hits:   reg.Counter("campaignd.runner_cache_hits"),
	}
}

type cacheEntry struct {
	runner  *caps.Runner
	lastUse int64
}

// get returns the warm runner for spec's prototype configuration,
// building (golden run included) on miss.
func (c *runnerCache) get(spec *Spec) (*caps.Runner, error) {
	key := spec.RunnerKey()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	if ent, ok := c.entries[key]; ok {
		ent.lastUse = c.tick
		c.hits.Inc()
		return ent.runner, nil
	}
	if len(c.entries) >= c.cap {
		var lruKey string
		var lru *cacheEntry
		for k, e := range c.entries {
			if lru == nil || e.lastUse < lru.lastUse {
				lruKey, lru = k, e
			}
		}
		lru.runner.Close()
		delete(c.entries, lruKey)
		c.evicted++
	}
	r, err := spec.BuildRunner()
	if err != nil {
		return nil, err
	}
	c.entries[key] = &cacheEntry{runner: r, lastUse: c.tick}
	c.builds.Inc()
	return r, nil
}

// drain closes every cached runner (daemon shutdown).
func (c *runnerCache) drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		e.runner.Close()
		delete(c.entries, k)
	}
}
