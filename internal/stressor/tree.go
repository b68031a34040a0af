package stressor

import (
	"math"
	"sync"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Checkpoint trees + convergence early-exit: the one checkpoint path
// behind Campaign.Checkpointer. A tree session retains a budgeted set
// of golden-prefix snapshots ("nodes"), one per injection instant it
// has visited, and establishes each scenario from the deepest retained
// node at or before its fork time — so a campaign whose fork times
// regress (StopOnFirst index order, resumed tails) forks from the
// deepest shared prefix instead of re-simulating from time zero.
// Convergence early-exit layers on top: the golden trajectory is hashed
// at a fixed stride, and a faulty run whose post-injection state hash
// returns to the golden trajectory stops simulating immediately and
// inherits the golden-equal classification — byte-identical to running
// it out.

const (
	// treeMaxNodes bounds the retained snapshots per session when
	// TreeConfig.MaxNodes is zero.
	treeMaxNodes = 32
	// treeMaxBytes bounds the kernel-side bytes a session's snapshots
	// retain (model-state captures are not counted; see
	// Checkpoint.ApproxBytes).
	treeMaxBytes = 16 << 20
)

// TreeConfig parameterizes a checkpoint-tree session.
type TreeConfig struct {
	// MaxNodes is the LRU depth budget on retained tree nodes
	// (0 selects the default of 32).
	MaxNodes int
	// EarlyExit enables convergence detection against the golden
	// trajectory.
	EarlyExit bool
	// HashStride is the trajectory hashing interval (0 lets the runner
	// derive one from its horizon, typically horizon/16).
	HashStride sim.Time
	// Metrics, when non-nil, receives tree/early-exit counters labeled
	// with Campaign. The campaign Result is identical without it.
	Metrics *obs.Registry
	// Campaign labels the counters.
	Campaign string
}

// RecyclableSession is a CheckpointSession whose retained node buffers
// can be returned to the runner's shared pool without closing the
// session. The campaign calls Recycle exactly once for a session it
// abandoned (after the runaway run has finished, so no goroutine still
// touches the buffers) — abandoned sessions are still never Closed.
type RecyclableSession interface {
	CheckpointSession
	Recycle()
}

// treeNode is one retained golden-prefix snapshot: the kernel
// checkpoint and the paired model-state capture at fork-1.
type treeNode struct {
	fork sim.Time
	tick uint64
	cp   sim.Checkpoint
	mst  any
}

// nodePool is a host-wide free list of tree nodes, shared by every
// session of the host so node buffers survive session abandonment,
// Close and — on a warm daemon runner — the campaign itself. SnapshotInto
// and SnapshotStateInto fully overwrite a node's buffers, so recycling
// them across kernels is safe.
type nodePool struct {
	mu   sync.Mutex
	free []*treeNode
	live int
}

// get takes a node from the pool (allocating when empty).
func (p *nodePool) get() *treeNode {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.live++
	if n := len(p.free); n > 0 {
		nd := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return nd
	}
	return &treeNode{}
}

// put returns a node's buffers to the pool.
func (p *nodePool) put(nd *treeNode) {
	nd.fork, nd.tick = 0, 0
	p.mu.Lock()
	p.live--
	p.free = append(p.free, nd)
	p.mu.Unlock()
}

// NewTreeSession implements Checkpointer. The session checks a slot out
// of the pool on first use and owns it until Close hands it back, so a
// campaign's sessions re-arm the prototypes the previous one built
// instead of elaborating and allocating new ones. acquire re-arms every
// slot it hands out, so golden state never leaks out of a session. A
// session the campaign abandons is never closed: its slot — perhaps torn,
// perhaps still running — simply never returns. Its retained tree nodes
// come from the host-wide pool and go back through Recycle.
func (h *Host[S, G]) NewTreeSession(cfg TreeConfig) CheckpointSession {
	if cfg.MaxNodes <= 0 {
		cfg.MaxNodes = treeMaxNodes
	}
	return &session[S, G]{h: h, cfg: cfg}
}

// session is one worker's tree session: one slot, the golden-prefix
// nodes retained of it, the fork-window memo and the golden trajectory
// its runs are compared with. Nodes are taken at fork-1: restoring there
// and elaborating the stressor gives its initial activation one instant
// before the injection, which reproduces a full run's schedule at the
// injection instant exactly (the stressor's process id is the highest
// either way, so it evaluates last within an instant).
type session[S State, G any] struct {
	h     *Host[S, G]
	cfg   TreeConfig
	sl    *hostSlot[S] // nil until init, and again after Close
	traj  *trajectory[G]
	pages *pageCounters

	nodes  []*treeNode // sorted by fork, ascending
	tick   uint64
	virgin bool // the slot is pristine at time zero
	dirty  bool // a run advanced past the last established instant
	cur    sim.Time

	// The fork-window memo (see window): the kernel was last established
	// in the golden idle window (winFork-1, winEnd), memo holds what the
	// silent runs injected inside it came to, and pending is the key of the
	// run in flight, set while its window leg has been silent.
	winFork, winEnd sim.Time
	memo            map[windowKey]windowVerdict
	pending         windowKey
	hasPending      bool

	hits, extends, rebuilds, evictions *obs.Counter
	earlyExits, savedNs                *obs.Counter
	windowHits, windowLoud             *obs.Counter
}

// pagedState is a State that keeps bulk state in sim.PagedState.
type pagedState interface{ PagedStats() sim.PagedStats }

// pageCounters publish the pages a session's digests and restores
// touched — the evidence that their cost followed the write set.
type pageCounters struct {
	src                pagedState
	rehashed, restored *obs.Counter
	published          sim.PagedStats
}

func (p *pageCounters) publish() {
	if p == nil {
		return
	}
	now := p.src.PagedStats()
	p.rehashed.Add(now.PagesRehashed - p.published.PagesRehashed)
	p.restored.Add(now.PagesRestored - p.published.PagesRestored)
	p.published = now
}

// init lazily checks out the session's slot — pristine at time zero,
// whether built or re-armed — and records the (early exit on) trajectory.
func (s *session[S, G]) init() error {
	if s.sl != nil {
		return nil
	}
	s.sl = s.h.acquire()
	s.virgin, s.dirty = true, true
	if m := s.cfg.Metrics; m != nil {
		l := obs.L("campaign", s.cfg.Campaign)
		s.hits = m.Counter("campaign.tree_hits", l)
		s.extends = m.Counter("campaign.tree_extends", l)
		s.rebuilds = m.Counter("campaign.tree_rebuilds", l)
		s.evictions = m.Counter("campaign.tree_evictions", l)
		s.earlyExits = m.Counter("campaign.early_exits", l)
		s.savedNs = m.Counter("campaign.early_exit_saved_sim_ns", l)
		s.windowHits = m.Counter("campaign.fork_window_hits", l)
		s.windowLoud = m.Counter("campaign.fork_window_loud", l)
		if p, ok := any(s.sl.s).(pagedState); ok {
			// A re-armed slot's counters still hold its earlier runs' work.
			s.pages = &pageCounters{src: p, published: p.PagedStats(),
				rehashed: m.Counter("campaign.state_pages_rehashed", l),
				restored: m.Counter("campaign.state_pages_restored", l)}
		}
	}
	if s.cfg.EarlyExit {
		tj, err := s.h.trajectory(s.cfg.HashStride)
		if err != nil {
			return err
		}
		s.traj = tj
	}
	return nil
}

// Run implements CheckpointSession, producing the exact outcome
// RunScenario yields for the same scenario.
func (s *session[S, G]) Run(sc fault.Scenario, fork sim.Time) fault.Outcome {
	if out, ok := s.recall(sc, fork); ok {
		return out
	}
	ob, err := s.execute(sc, fork)
	s.pages.publish()
	if err != nil {
		return errorOutcome(sc, err)
	}
	out := s.h.classify(sc, ob)
	s.remember(out)
	return out
}

func (s *session[S, G]) execute(sc fault.Scenario, fork sim.Time) (analysis.Observation, error) {
	if err := s.init(); err != nil {
		return analysis.Observation{}, err
	}
	if err := s.establish(fork); err != nil {
		return analysis.Observation{}, err
	}
	s.dirty = true
	sl := s.sl
	sl.st.Respawn(sl.k, sl.reg, sc, s.h.horizon)
	if err := s.window(&sl.st, sc); err != nil {
		return analysis.Observation{}, err
	}
	if s.traj != nil {
		// A run whose injections errored never converges.
		converged, at, err := s.runToHorizon()
		if err != nil {
			return analysis.Observation{}, err
		}
		if converged {
			if s.earlyExits != nil {
				s.earlyExits.Inc()
				s.savedNs.Add(uint64(s.h.horizon - at))
			}
			return s.h.m.Converged(sl.s, &s.traj.g, int(at/s.traj.stride)-1), nil
		}
	} else if err := sl.k.RunUntil(s.h.horizon); err != nil {
		return analysis.Observation{}, err
	}
	if err := s.h.injectionError(sc, &sl.st); err != nil {
		return analysis.Observation{}, err
	}
	return s.h.m.Observe(sl.s), nil
}

// Close implements CheckpointSession, returning the retained nodes to
// the host's node pool and the slot to its slot pool. Method-only kernels
// hold no goroutines, which is what lets the campaign abandon a session
// without closing it.
func (s *session[S, G]) Close() {
	s.Recycle()
	if s.sl != nil {
		s.h.release(s.sl)
		s.sl = nil
	}
}

// Recycle implements RecyclableSession: every retained node goes back to
// the host's pool — on Close, on a rebuild from time zero, and for an
// abandoned session once the runaway run has finished. Node buffers are
// fully overwritten on reuse, so this is safe after abandonment.
func (s *session[S, G]) Recycle() {
	for i, nd := range s.nodes {
		s.h.nodes.put(nd)
		s.nodes[i] = nil
	}
	s.nodes = s.nodes[:0]
	s.dirty = true
}

// Establish is establish for tests that pin the tree's steady state: the
// slot is left golden at fork-1, as a run forked at fork starts, and is
// marked run past, as the run that follows leaves it.
func (s *session[S, G]) Establish(fork sim.Time) error {
	if err := s.init(); err != nil {
		return err
	}
	err := s.establish(fork)
	s.dirty = true
	return err
}

// Prototype is the prototype in the session's slot, for tests of the slot
// pool: valid from the first run until Close.
func (s *session[S, G]) Prototype() State { return s.sl.s }

// establish leaves kernel and model in the golden state at simulated
// time fork-1, with a node at fork retained for the next scenario.
// Cheapest case first: an exact-fork node is restored (or nothing
// happens if the kernel still sits there untouched); otherwise the
// deepest node before fork is restored and the golden run extended
// forward; with no usable node the prefix is rebuilt from time zero —
// which Resets the kernel and therefore recycles every retained node.
func (s *session[S, G]) establish(fork sim.Time) error {
	if !s.dirty && s.cur == fork {
		return nil
	}
	k := s.sl.k
	// Nodes are sorted by fork and no two share one: the last at or
	// before fork is the exact one if there is one.
	var nd *treeNode
	for _, n := range s.nodes {
		if n.fork <= fork {
			nd = n
		}
	}
	if nd != nil {
		if err := k.Restore(&nd.cp); err != nil {
			return err
		}
		s.sl.s.RestoreState(nd.mst)
		s.touch(nd)
		if nd.fork == fork {
			inc(s.hits)
			s.cur, s.dirty = fork, false
			return nil
		}
		inc(s.extends)
	} else {
		// No retained prefix at or before fork: rebuild from zero. A
		// fresh slot is already pristine; otherwise Reset invalidates the
		// whole tree.
		if !s.virgin {
			s.Recycle()
			k.Reset()
			s.h.m.Rearm(k, s.sl.s)
		}
		inc(s.rebuilds)
	}
	s.virgin = false
	if err := k.RunUntil(fork - 1); err != nil {
		return err
	}
	nd = s.h.nodes.get()
	if err := k.SnapshotInto(&nd.cp); err != nil {
		s.h.nodes.put(nd)
		return err
	}
	nd.mst = sim.SnapshotModelState(s.sl.s, nd.mst)
	nd.fork = fork
	s.insert(nd)
	s.touch(nd)
	s.evict()
	s.cur, s.dirty = fork, false
	return nil
}

func (s *session[S, G]) insert(nd *treeNode) {
	i := len(s.nodes)
	s.nodes = append(s.nodes, nd)
	for i > 0 && s.nodes[i-1].fork > nd.fork {
		s.nodes[i] = s.nodes[i-1]
		i--
	}
	s.nodes[i] = nd
}

func (s *session[S, G]) touch(nd *treeNode) {
	s.tick++
	nd.tick = s.tick
}

// evict enforces the node-count and byte budgets, dropping the least
// recently used nodes first (never the one just touched).
func (s *session[S, G]) evict() {
	for len(s.nodes) > 1 {
		over := len(s.nodes) > s.cfg.MaxNodes
		if !over {
			bytes := 0
			for _, nd := range s.nodes {
				bytes += nd.cp.ApproxBytes()
			}
			over = bytes > treeMaxBytes
		}
		if !over {
			return
		}
		lru := 0
		for i, nd := range s.nodes {
			if nd.tick < s.nodes[lru].tick {
				lru = i
			}
		}
		if s.nodes[lru].tick == s.tick {
			return // everything else already evicted
		}
		nd := s.nodes[lru]
		copy(s.nodes[lru:], s.nodes[lru+1:])
		s.nodes[len(s.nodes)-1] = nil
		s.nodes = s.nodes[:len(s.nodes)-1]
		s.h.nodes.put(nd)
		inc(s.evictions)
	}
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Fork windows. Between two consecutive instants at which the golden
// run executes anything — an idle window (a, b) — nothing reads or
// writes model state, so a single permanent fault injected at any
// instant of the window is the same experiment from b on, provided the
// injection itself stirs nothing before b (DESIGN §14 has the argument).
// Run calls recall before establishing, window between Respawn and the
// run to the horizon, and remember with the outcome of a run that ended
// cleanly.

// windowKey is a single permanent fault's content minus Name and Start:
// all an injector may depend on besides model state (fault.Injector).
type windowKey struct {
	d fault.Descriptor // Name, Start, Param and Rate zeroed
	// param and rate are the floats' bits, so -0 and every NaN stay apart.
	param, rate uint64
}

// windowVerdict is what a silent run came to.
type windowVerdict struct {
	class  fault.Classification
	detail string
}

// windowKeyOf keys sc when its whole timeline is one action: a single
// permanent fault. Transients, intermittents and multi-fault scenarios
// act again after the window and are never keyed.
func windowKeyOf(sc fault.Scenario) (key windowKey, start sim.Time, ok bool) {
	if len(sc.Faults) != 1 || sc.Faults[0].Class != fault.Permanent {
		return key, 0, false
	}
	d := sc.Faults[0]
	key.param, key.rate = math.Float64bits(d.Param), math.Float64bits(d.Rate)
	start, d.Name, d.Start, d.Param, d.Rate = d.Start, "", 0, 0, 0
	key.d = d
	return key, start, true
}

// recall answers sc from the window memo: ok when a run with sc's
// content, forked at the same fork and injected before the same window
// end, was silent and ended cleanly. The outcome carries sc itself.
// Nothing is established, respawned or simulated for a hit.
func (s *session[S, G]) recall(sc fault.Scenario, fork sim.Time) (fault.Outcome, bool) {
	if fork != s.winFork {
		return fault.Outcome{}, false
	}
	key, start, ok := windowKeyOf(sc)
	if !ok || start >= s.winEnd {
		return fault.Outcome{}, false
	}
	v, ok := s.memo[key]
	if !ok {
		return fault.Outcome{}, false
	}
	inc(s.windowHits)
	return fault.Outcome{Scenario: sc, Class: v.class, Detail: v.detail}, true
}

// window runs a keyed scenario's first leg, with the kernel established
// at sc's fork and st respawned on it: to the last instant before the
// golden run next executes anything (b), when sc injects before b. The
// leg is silent iff the kernel activated nothing but the stressor's own
// two activations (the initial one and the injection), took no
// notification but the stressor's own one, still has b as its next
// event, and the stressor performed its one action without error: then
// model state at b-1 is golden state plus what Inject made of sc's
// content, whichever instant of the window sc named, and remember may
// keep the verdict. A loud leg is simply the start of an ordinary run.
// The caller runs on to the horizon either way.
func (s *session[S, G]) window(st *Stressor, sc fault.Scenario) error {
	s.hasPending = false
	key, start, ok := windowKeyOf(sc)
	if !ok {
		return nil
	}
	k := s.sl.k
	b := k.NextEventTime()
	if s.cur != s.winFork || b != s.winEnd {
		s.winFork, s.winEnd = s.cur, b
		clear(s.memo)
	}
	if start >= b {
		return nil
	}
	before := k.Stats()
	if err := k.RunUntil(min(b-1, st.Horizon)); err != nil {
		return err
	}
	after := k.Stats()
	if after.Activations-before.Activations == 2 && after.Notifications-before.Notifications == 1 &&
		k.NextEventTime() == b && st.Finished() && len(st.InjectionErrors()) == 0 {
		s.pending, s.hasPending = key, true
	} else {
		inc(s.windowLoud)
	}
	return nil
}

// remember keeps out as the verdict of every later scenario recall finds
// equivalent to the one that just ran, when that run's window leg was
// silent. Run calls it only for a run that ended cleanly — one that
// errored, panicked or timed out is never remembered.
func (s *session[S, G]) remember(out fault.Outcome) {
	if !s.hasPending {
		return
	}
	s.hasPending = false
	if s.memo == nil {
		s.memo = make(map[windowKey]windowVerdict)
	}
	s.memo[s.pending] = windowVerdict{class: out.Class, detail: out.Detail}
}

// trajectory is the golden run's incremental state-hash stream and what
// the model recorded of the same run: hashes[i] is the digest of model +
// scheduler state after running to (i+1)*stride, for every stride instant
// strictly before the horizon. The digests are derived from the
// Snapshottable/Hashable capture — no full snapshots are taken.
type trajectory[G any] struct {
	stride sim.Time
	// nEvents/nProcs are the golden elaboration's object counts; live
	// runs restrict their scheduler hash to this prefix so the stressor's
	// own event/process (elaborated after the model) never enters the
	// digest.
	nEvents, nProcs int
	hashes          []uint64
	g               G
}

// trajectory returns the golden trajectory for the given hash stride
// (0: horizon/16, at least one time unit), recording it on first use:
// one dedicated golden run per distinct stride, shared by every session
// of the host. The freshly elaborated golden kernel (no stressor) runs to
// the horizon in stride chunks, and the model records its own state at
// each stride instant beside the digest (Model.Record). Chunked RunUntil
// is observationally one full run, so the digests are exactly what a
// faulty run would hash to at those instants had the fault never
// perturbed anything.
func (h *Host[S, G]) trajectory(stride sim.Time) (*trajectory[G], error) {
	if stride <= 0 {
		stride = h.horizon / 16
	}
	stride = max(stride, 1)
	h.trajMu.Lock()
	defer h.trajMu.Unlock()
	if tj, ok := h.trajs[stride]; ok {
		return tj, nil
	}
	k := sim.NewKernel()
	defer k.Shutdown()
	s, _ := h.m.Build(k)
	tj := &trajectory[G]{stride: stride}
	tj.nEvents, tj.nProcs = k.Elaborated()
	for t := stride; t < h.horizon; t += stride {
		if err := k.RunUntil(t); err != nil {
			return nil, err
		}
		h.m.Record(&tj.g, s)
		tj.hashes = append(tj.hashes, tj.digest(k, s))
	}
	if h.trajs == nil {
		h.trajs = make(map[sim.Time]*trajectory[G])
	}
	h.trajs[stride] = tj
	return tj, nil
}

// digest folds scheduler + model state into one hash value.
func (tj *trajectory[G]) digest(k *sim.Kernel, m sim.Hashable) uint64 {
	h := sim.NewStateHash()
	k.HashScheduler(&h, tj.nEvents, tj.nProcs)
	m.HashState(&h)
	return h.Sum()
}

// runToHorizon advances the injected run from its current time to the
// horizon in trajectory-stride chunks, checking for convergence at
// each stride instant once the stressor has performed every scheduled
// action (a pending revert or intermittent pulse could still push the
// run off the golden trajectory, so earlier instants are not
// compared). On a digest match the run terminates immediately:
// converged state plus an empty remaining stressor timeline implies
// the suffix is byte-identical to the golden run's, so the final
// observation is the golden one. Runs whose injections errored never
// converge here — their campaign-error outcome requires the full path.
func (s *session[S, G]) runToHorizon() (converged bool, at sim.Time, err error) {
	k, st, tj := s.sl.k, &s.sl.st, s.traj
	now := k.Now()
	checkable := true
	checked := false
	for i := range tj.hashes {
		t := sim.Time(i+1) * tj.stride
		if t <= now {
			continue
		}
		if err := k.RunUntil(t); err != nil {
			return false, 0, err
		}
		if !st.Finished() || !checkable {
			continue
		}
		if !checked {
			checked = true
			if len(st.InjectionErrors()) > 0 {
				checkable = false
				continue
			}
		}
		if tj.digest(k, s.sl.s) == tj.hashes[i] {
			return true, t, nil
		}
	}
	if err := k.RunUntil(s.h.horizon); err != nil {
		return false, 0, err
	}
	return false, 0, nil
}
