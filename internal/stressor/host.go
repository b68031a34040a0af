package stressor

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The runner every virtual prototype shares: the paper's Fig. 3
// error-effect simulation — one golden run, then each scenario run to the
// horizon and classified against it — with every shortcut written once:
// pooled slots, the checkpoint tree, fork windows and convergence early
// exit. A prototype supplies only its Model.

// Model is what a prototype tells Host. S is its elaborated state — a
// capture for the tree, a digest for early exit and signatures — R what
// it records of a finished run to answer a run that joins that run's
// trajectory and stops early.
type Model[S sim.State, R any] interface {
	// Build elaborates a fresh prototype on k, ready to run from time
	// zero, and returns it with its injection-site registry. It must
	// leave no delta notification or channel update pending: the host
	// captures what Build left as its root checkpoint, and a used slot
	// goes back to time zero by restoring it.
	Build(k *sim.Kernel) (S, *fault.Registry)
	// Observe reads the observation off s, whose run reached the horizon.
	// It may hand out s's own buffers (a detection list): the host
	// classifies the observation before the slot's next restore, and
	// keeps golden's with lists of its own.
	Observe(s S) analysis.Observation
	// Golden vets the golden run's observation ob, read off s, and keeps
	// whatever later observations are compared with.
	Golden(s S, ob analysis.Observation) error
	// Record keeps in r what a run's trajectory carries for the runs that
	// join it later (Converged): it is called at the n-th stride instant
	// the run is marked at (n = 0 first, so a reused r is overwritten)
	// with ob nil and, once the run has reached the horizon, after Observe
	// with ob its observation, valid during the call, and n its number of
	// marks. It must only read s: the run goes on.
	Record(r *R, s S, n int, ob *analysis.Observation)
	// HistoryKey digests the history s has recorded that its state digest
	// leaves out and its future appends read (a dedup); 0 when there is
	// none. A run joins a trajectory only where that run's key was the
	// same or 0.
	HistoryKey(s S) uint64
	// Converged is the full-horizon observation of a run on s whose state
	// joined the trajectory recorded in r at its n-th mark. It may append
	// to s's history: the slot is restored before its next run.
	Converged(s S, r *R, n int) analysis.Observation
}

// FinalObservation is the record half of a Model — Record, HistoryKey,
// Converged — for a prototype whose state digest covers all its state,
// histories included: a run that joins another's trajectory ends exactly
// as that run did, so the record is the final observation alone.
type FinalObservation[S any] struct{}

func (FinalObservation[S]) Record(r *analysis.Observation, _ S, _ int, ob *analysis.Observation) {
	if ob != nil {
		*r = *ob
	}
}

func (FinalObservation[S]) HistoryKey(S) uint64 { return 0 }

func (FinalObservation[S]) Converged(_ S, r *analysis.Observation, _ int) analysis.Observation {
	return *r
}

// Host runs fault-injection campaigns on one prototype. It keeps a pool
// of kernel+prototype slots: each concurrent run and each live tree
// session checks out its own, so the pool grows to the campaign's peak
// worker count and every run owns its kernel. Every pooled run is a tree
// session's, a campaign's or a single call's: it forks off the deepest
// of the host's golden-prefix nodes, which any session restores into
// whatever slot it holds and which outlive the campaign, or off the root
// checkpoint, the first slot as Build left it, captured once. Results
// are byte-identical to ReuseOff's.
type Host[S sim.State, R any] struct {
	// ReuseOff turns every shortcut off: each of the host's sessions, a
	// one-shot call's included, builds the prototype afresh for every
	// scenario, forks nothing and takes no slot. It is the naive oracle
	// the shortcuts are checked against.
	ReuseOff bool

	name    string
	m       Model[S, R]
	horizon sim.Time
	golden  analysis.Observation
	reg     *fault.Registry // the first slot's, for enumeration only
	metrics *obs.Registry
	trace   *obs.TraceRecorder

	mu    sync.Mutex
	slots []*hostSlot[S]
	built int // slots built: the unit of the node budgets

	// root is the first slot captured right after Build, before anything
	// ran; restoring it takes any slot back to time zero.
	root treeNode
	tree goldenNodes
	plan planCache
	// sets are the trajectory sets the host's campaigns gave back, for
	// the next ones (campaignSet).
	sets []*trajSet[S, R]
	// Recorded by NewHost's golden walk: the early-exit trajectory, and
	// the instants up to the horizon at which the golden run executes
	// anything, time zero included (see ForkTime).
	traj       trajectory[S, R]
	activityAt []sim.Time
}

// maxKeptPlans bounds the plans a host keeps. A daemon serves repeated
// specs from one cached runner: bench/'s daemon-e8-loop cycles four
// universes through each of its two (eight specs over two worlds), so a
// host that keeps fewer than four serves none of them. The budget is
// twice that; a plan of the 6 384-scenario CAPS universe, its key a copy
// of the universe's IDs and descriptors, holds ~0.84 MB (DESIGN §7).
const maxKeptPlans = 8

// planCache is the universe plans a host keeps (universePlan). Past
// maxKeptPlans the oldest goes, served or not: a host cycling through
// fewer universes than that is served every one of them, as under an
// LRU. Concurrent campaigns on the host read and add plans under mu; a
// kept plan's key never changes, so it is matched outside it.
type planCache struct {
	mu    sync.Mutex
	plans [maxKeptPlans]*universePlan
	next  int // the slot keep fills: the oldest plan's
}

// find is the kept plan made for scenarios under dedup; nil when there
// is none.
func (pc *planCache) find(scenarios []fault.Scenario, dedup bool) *universePlan {
	if pc == nil {
		return nil
	}
	pc.mu.Lock()
	plans := pc.plans
	pc.mu.Unlock()
	for _, p := range plans {
		if p != nil && p.matches(scenarios, dedup) {
			return p
		}
	}
	return nil
}

// keep adds p, made for scenarios, in place of the oldest plan.
func (pc *planCache) keep(p *universePlan, scenarios []fault.Scenario) {
	if pc == nil {
		return
	}
	p.setKey(scenarios)
	pc.mu.Lock()
	pc.plans[pc.next] = p
	pc.next = (pc.next + 1) % maxKeptPlans
	pc.mu.Unlock()
}

// planCache implements Checkpointer.
func (h *Host[S, R]) planCache() *planCache { return &h.plan }

// hostSlot is one reusable kernel+prototype pair. Its stressor is
// elaborated with it, after the prototype, and Respawned per scenario, so
// neither its kernel objects nor its record and timeline buffers are made
// again for a run.
type hostSlot[S sim.State] struct {
	k   *sim.Kernel
	s   S
	reg *fault.Registry
	st  Stressor
	// nEvents and nProcs are the prototype's elaboration, the stressor's
	// objects excluded: the prefix the slot's digests cover.
	nEvents, nProcs int
	hash            sim.StateHash
	ob              analysis.Observation // the observation a recorded run hands Model.Record
	// memo is the buffer of the fork-window memo of the session holding
	// the slot, kept across sessions so a warm host's grows no list.
	memo []windowVerdict
	// the sinks the kernel's instrument was last built with
	metrics *obs.Registry
	trace   *obs.TraceRecorder
}

// NewHost builds the first slot, captures it as the root and walks the
// golden run on it. name prefixes the host's errors.
func NewHost[S sim.State, R any](name string, m Model[S, R], horizon sim.Time) (*Host[S, R], error) {
	h := &Host[S, R]{name: name, m: m, horizon: horizon}
	sl := h.take()
	h.reg = sl.reg
	// Digested first, so the root carries the prototype's page digests
	// (sim.PagedState) and a slot restored to it need not recompute them.
	sl.sum()
	if err := sl.k.SnapshotInto(&h.root.cp); err != nil {
		return nil, fmt.Errorf("%s: root checkpoint: %w", name, err)
	}
	h.root.mst = sl.s.SnapshotState(nil)
	if err := h.walkGolden(sl); err != nil {
		return nil, err
	}
	h.release(sl)
	return h, nil
}

// walkGolden runs the golden run on sl, the freshly built first slot,
// from one instant to the next up to the horizon: every instant at which
// the golden run executes anything, recorded as such, and every stride
// instant short of the horizon, at which the golden record is marked with
// the state digest and history key and the model records its history
// (Model.Record). At the horizon the run is observed, digested, recorded
// and vetted (Model.Golden). Legged RunUntil is observationally one run
// (sim's TestLeggedRunEqualsOneRun), so each instant shows what one plain
// golden run shows there — and the digests are exactly what a faulty run
// hashes to at a stride instant had the fault never perturbed anything.
func (h *Host[S, R]) walkGolden(sl *hostSlot[S]) error {
	k, tj := sl.k, &h.traj
	g := &tj.golden
	tj.stride = max(h.horizon/16, 1)
	tj.nEvents, tj.nProcs = sl.nEvents, sl.nProcs
	next := tj.stride // the next stride instant
	for t, active := sim.Time(0), true; ; {
		if err := k.RunUntil(t); err != nil {
			return err
		}
		if active {
			h.activityAt = append(h.activityAt, t)
		}
		if t == next && t < h.horizon {
			n := len(g.digests)
			h.m.Record(&g.r, sl.s, n, nil)
			g.mark(n, n, sl.digest(tj.nEvents, tj.nProcs), h.m.HistoryKey(sl.s))
			next += tj.stride
		}
		if t == h.horizon {
			break
		}
		pending := k.NextEventTime()
		t = min(pending, next, h.horizon)
		active = t == pending
	}
	h.golden = h.m.Observe(sl.s)
	// Golden outlives the run: its list must not be the slot's buffer,
	// which the slot's next restore rewinds.
	h.golden.DetectedBy = slices.Clone(h.golden.DetectedBy)
	// After Observe, as runs are signed: CAPS's Observe reads calibration
	// memory, whose read count is hashed.
	g.final = sl.sum()
	h.m.Record(&g.r, sl.s, len(g.digests), &h.golden)
	tj.only = h.newTrajSet()
	tj.only.fixed = true
	return h.m.Golden(sl.s, h.golden)
}

// Golden exposes the cached golden observation.
func (h *Host[S, R]) Golden() analysis.Observation { return h.golden }

// Registry is the prototype's injection-site registry, for enumerating
// the fault space; injecting through it touches a pooled slot.
func (h *Host[S, R]) Registry() *fault.Registry { return h.reg }

// Sites lists the prototype's injection sites, sorted.
func (h *Host[S, R]) Sites() []string { return h.reg.Sites() }

// Instrument attaches observability sinks: every later scenario kernel
// publishes its statistics to reg and its run spans to tr. Both sinks are
// race-safe, so instrumented hosts work inside parallel campaigns. Pass
// nils to detach. Call between campaigns, not concurrently with runs.
func (h *Host[S, R]) Instrument(reg *obs.Registry, tr *obs.TraceRecorder) {
	h.metrics, h.trace = reg, tr
}

// Close shuts the pooled kernels down. The host must not be used
// afterwards. Calling it is optional — nothing in the pool spins — but
// keeps goroutine-leak checkers quiet in tests.
func (h *Host[S, R]) Close() {
	h.mu.Lock()
	slots := h.slots
	h.slots = nil
	h.mu.Unlock()
	for _, sl := range slots {
		sl.k.Shutdown()
	}
}

// instrument attaches the host's sinks to a kernel built for one run or
// one session.
func (h *Host[S, R]) instrument(k *sim.Kernel) {
	if h.metrics != nil || h.trace != nil {
		k.SetInstrument(&sim.Instrument{Metrics: h.metrics, Trace: h.trace})
	}
}

// take checks a slot out of the pool as its last user left it, or builds
// a new one, pristine at time zero, when every slot is in use.
func (h *Host[S, R]) take() (sl *hostSlot[S]) {
	h.mu.Lock()
	if n := len(h.slots); n > 0 {
		sl = h.slots[n-1]
		h.slots[n-1] = nil
		h.slots = h.slots[:n-1]
	} else {
		h.built++
	}
	h.mu.Unlock()
	if sl == nil {
		sl = &hostSlot[S]{k: sim.NewKernel()}
		sl.s, sl.reg = h.m.Build(sl.k)
		sl.nEvents, sl.nProcs = sl.k.Elaborated()
		// Before the root is captured, so every restore keeps it idle.
		sl.st.elaborate(sl.k, sl.reg)
	}
	if sl.metrics != h.metrics || sl.trace != h.trace {
		sl.metrics, sl.trace = h.metrics, h.trace
		// One Instrument per kernel: it carries per-kernel delta state.
		sl.k.SetInstrument(nil)
		h.instrument(sl.k)
	}
	return sl
}

// restore rewinds sl's kernel and prototype to nd.
func (sl *hostSlot[S]) restore(nd *treeNode) error {
	if err := sl.k.Restore(&nd.cp); err != nil {
		return err
	}
	sl.s.RestoreState(nd.mst)
	return nil
}

func (h *Host[S, R]) release(sl *hostSlot[S]) {
	h.mu.Lock()
	h.slots = append(h.slots, sl)
	h.mu.Unlock()
}

// rebuild is run on a prototype and a stressor built for sc: the ReuseOff
// oracle, which shares nothing with the pool.
func (h *Host[S, R]) rebuild(sc fault.Scenario, sign bool, fn func(S)) (fault.Outcome, error) {
	sl := &hostSlot[S]{k: sim.NewKernel()}
	defer sl.k.Shutdown()
	h.instrument(sl.k)
	sl.s, sl.reg = h.m.Build(sl.k)
	var st *Stressor
	if len(sc.Faults) > 0 {
		st = SpawnThread(sl.k, sl.reg, sc, h.horizon)
	}
	if err := sl.k.RunUntil(h.horizon); err != nil {
		return fault.Outcome{}, err
	}
	if err := h.injectionError(sc, st); err != nil {
		return fault.Outcome{}, err
	}
	return h.outcome(sc, sl, sign, nil, 0, fn), nil
}

// sum digests the prototype's state through the slot's own StateHash: a
// fresh one would escape through the State interface, an allocation a run.
func (sl *hostSlot[S]) sum() uint64 {
	sl.hash.Reset()
	sl.s.HashState(&sl.hash)
	return sl.hash.Sum()
}

// digest folds the slot's scheduler state, restricted to its first
// nEvents events and nProcs processes (the prototype's elaboration, so a
// stressor's own objects never enter it), and its prototype's state into
// one value, through the slot's own StateHash as sum does.
func (sl *hostSlot[S]) digest(nEvents, nProcs int) uint64 {
	sl.hash.Reset()
	sl.k.HashScheduler(&sl.hash, nEvents, nProcs)
	sl.s.HashState(&sl.hash)
	return sl.hash.Sum()
}

// injectionError reports the first action st failed to perform: a broken
// campaign setup, not a prototype failure.
func (h *Host[S, R]) injectionError(sc fault.Scenario, st *Stressor) error {
	if st != nil {
		if errs := st.InjectionErrors(); len(errs) > 0 {
			return fmt.Errorf("%s: scenario %s: %v", h.name, sc.ID, errs[0])
		}
	}
	return nil
}

// classify folds a finished run's observation into its outcome.
func (h *Host[S, R]) classify(sc fault.Scenario, ob analysis.Observation) fault.Outcome {
	ob.Activated = len(sc.Faults) > 0
	return fault.Outcome{Scenario: sc, Class: analysis.Classify(h.golden, ob), Detail: analysis.Describe(ob)}
}

// outcome classifies the run that reached the horizon on sl, signed when
// sign is set, records its final material in rec, when set, as the end of
// a trajectory with marks marks, and then hands sl's prototype to fn, when
// set.
func (h *Host[S, R]) outcome(sc fault.Scenario, sl *hostSlot[S], sign bool, rec *runRecord[R], marks int, fn func(S)) fault.Outcome {
	ob := h.m.Observe(sl.s)
	out := h.classify(sc, ob)
	if sign || rec != nil {
		final := sl.sum()
		if sign {
			out.Signature = sim.MixSignature(final, uint64(out.Class))
		}
		if rec != nil {
			rec.final = final
			// Through the slot: ob itself would escape through the Model.
			sl.ob = ob
			h.m.Record(&rec.r, sl.s, marks, &sl.ob)
		}
	}
	if fn != nil {
		fn(sl.s)
	}
	return out
}

func errorOutcome(sc fault.Scenario, err error) fault.Outcome {
	return fault.Outcome{Scenario: sc, Class: fault.DetectedSafe, Detail: "campaign error: " + err.Error()}
}

// run is every call's run: a one-shot tree session — a pooled slot
// established at ForkTime(sc), run, signed when sign is set and handed
// back — that keeps no fork-window memo, since no later run of it could
// read one.
func (h *Host[S, R]) run(sc fault.Scenario, sign bool, fn func(S)) fault.Outcome {
	fork, _ := h.ForkTime(sc)
	s := session[S, R]{h: h, cfg: TreeConfig{sign: sign}}
	out, err := s.execute(sc, fork, false, fn)
	// Not deferred: a run that panicked can leave its kernel torn (a
	// method process that panics mid-evaluate leaves the runnable queue
	// and its spare on one array, which neither Restore nor anything else
	// separates), and a torn slot must never run again.
	s.Close()
	if err != nil {
		return errorOutcome(sc, err)
	}
	return out
}

// RunScenario executes and classifies one fault scenario.
func (h *Host[S, R]) RunScenario(sc fault.Scenario) fault.Outcome { return h.run(sc, false, nil) }

// RunScenarioWith is RunScenario that first hands the prototype of a run
// that ended cleanly to fn, which must not keep it.
func (h *Host[S, R]) RunScenarioWith(sc fault.Scenario, fn func(S)) fault.Outcome {
	return h.run(sc, false, fn)
}

// RunScenarioSigned is RunScenario plus the outcome's equivalence
// signature: the prototype's final-state digest (the one convergence
// early exit trusts) folded with the classification. Two runs with equal
// signatures ended behaviorally indistinguishable; adaptive campaigns
// prune and explore on exactly this. A run that errors out carries no
// signature (the engine substitutes its class+detail fallback).
func (h *Host[S, R]) RunScenarioSigned(sc fault.Scenario) fault.Outcome { return h.run(sc, true, nil) }

// RunFunc is the method value h.RunScenario.
//
// Deprecated: a campaign takes the host as its Checkpointer.
func (h *Host[S, R]) RunFunc() RunFunc { return h.RunScenario }

// SignedRunFunc is the method value h.RunScenarioSigned.
//
// Deprecated: a campaign takes the host as its Checkpointer.
func (h *Host[S, R]) SignedRunFunc() RunFunc { return h.RunScenarioSigned }

// ForkTime implements Checkpointer, and ok is always true. A scenario
// forks at its earliest injection instant; one with no faults, or whose
// earliest instant is past the horizon (it never injects), forks at zero,
// which is the root.
//
// A scenario whose whole timeline is one action — a single permanent
// fault — forks at the canonical instant of the golden idle window it
// injects in instead: a+1, a being the last instant before Start at which
// the golden run executes anything. Nothing happens between a and Start,
// so the fork still precedes every mutation, and every instant of the
// window shares one tree node and one session's window memo.
func (h *Host[S, R]) ForkTime(sc fault.Scenario) (sim.Time, bool) {
	fork := ForkTime(sc)
	if fork > h.horizon {
		return 0, true
	}
	if len(sc.Faults) == 1 && sc.Faults[0].Class == fault.Permanent {
		if i, _ := slices.BinarySearch(h.activityAt, fork); i > 0 {
			fork = h.activityAt[i-1] + 1
		}
	}
	return fork, true
}
