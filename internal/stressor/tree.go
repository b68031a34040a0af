package stressor

import (
	"math"
	"sync"

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
	// DefaultTreeMaxNodes bounds the retained snapshots per session when
	// TreeConfig.MaxNodes is zero.
	DefaultTreeMaxNodes = 32
	// DefaultTreeMaxBytes bounds the kernel-side bytes a session's
	// snapshots retain (model-state captures are not counted; see
	// Checkpoint.ApproxBytes).
	DefaultTreeMaxBytes = 16 << 20
)

// TreeConfig parameterizes a checkpoint-tree session.
type TreeConfig struct {
	// MaxNodes is the LRU depth budget on retained tree nodes
	// (0 selects DefaultTreeMaxNodes).
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

// TreeNode is one retained golden-prefix snapshot: the kernel
// checkpoint and the paired model-state capture at fork-1.
type TreeNode struct {
	fork sim.Time
	tick uint64
	cp   sim.Checkpoint
	mst  any
}

// NodePool is a runner-level free list of tree nodes, shared by every
// session of that runner so node buffers survive session abandonment,
// Close and — on a warm daemon runner — the campaign itself. SnapshotInto and
// SnapshotStateInto fully overwrite a node's buffers, so recycling
// them across kernels is safe.
type NodePool struct {
	mu   sync.Mutex
	free []*TreeNode
	live int
}

// Get takes a node from the pool (allocating when empty).
func (p *NodePool) Get() *TreeNode {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.live++
	if n := len(p.free); n > 0 {
		nd := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return nd
	}
	return &TreeNode{}
}

// Put returns a node's buffers to the pool.
func (p *NodePool) Put(nd *TreeNode) {
	if nd == nil {
		return
	}
	nd.fork, nd.tick = 0, 0
	p.mu.Lock()
	p.live--
	p.free = append(p.free, nd)
	p.mu.Unlock()
}

// Live reports how many nodes are currently checked out — the
// leak-detection hook for engine lifecycle tests.
func (p *NodePool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// TreeCore is the prototype-agnostic heart of a tree session. The
// hosting session (Host's tree session) supplies the kernel, the model's
// Snapshottable hooks and a Rebuild closure that returns both to their
// pristine time-zero state; TreeCore owns node retention, restore
// dispatch, the LRU budget and the counters.
type TreeCore struct {
	Cfg   TreeConfig
	K     *sim.Kernel
	Model sim.Snapshottable
	// Rebuild returns kernel and model to pristine time zero (Reset +
	// Rearm + run-phase elaboration). It invalidates every retained
	// node — Establish recycles them first.
	Rebuild func()
	// Pool is the runner-shared node free list (required).
	Pool *NodePool

	nodes  []*TreeNode // sorted by fork, ascending
	tick   uint64
	virgin bool // kernel freshly built, pristine at time zero
	dirty  bool // a run advanced past the last established instant
	cur    sim.Time

	// The fork-window memo (see Window): the kernel was last established
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
	nodesGauge                         *obs.Gauge
}

// Init finalizes the core after the host built its kernel and model.
func (t *TreeCore) Init() {
	if t.Cfg.MaxNodes <= 0 {
		t.Cfg.MaxNodes = DefaultTreeMaxNodes
	}
	t.virgin = true
	t.dirty = true
	if m := t.Cfg.Metrics; m != nil {
		l := obs.L("campaign", t.Cfg.Campaign)
		t.hits = m.Counter("campaign.tree_hits", l)
		t.extends = m.Counter("campaign.tree_extends", l)
		t.rebuilds = m.Counter("campaign.tree_rebuilds", l)
		t.evictions = m.Counter("campaign.tree_evictions", l)
		t.earlyExits = m.Counter("campaign.early_exits", l)
		t.savedNs = m.Counter("campaign.early_exit_saved_sim_ns", l)
		t.windowHits = m.Counter("campaign.fork_window_hits", l)
		t.windowLoud = m.Counter("campaign.fork_window_loud", l)
		t.nodesGauge = m.Gauge("campaign.tree_nodes", l)
	}
}

// Nodes reports the retained node count (tests).
func (t *TreeCore) Nodes() int { return len(t.nodes) }

// MarkDirty records that the hosting session is about to run the
// kernel past the established instant.
func (t *TreeCore) MarkDirty() { t.dirty = true }

// Establish leaves kernel and model in the golden state at simulated
// time fork-1, with a node at fork retained for the next scenario.
// Cheapest case first: an exact-fork node is restored (or nothing
// happens if the kernel still sits there untouched); otherwise the
// deepest node before fork is restored and the golden run extended
// forward; with no usable node the prefix is rebuilt from time zero —
// which Resets the kernel and therefore recycles every retained node.
func (t *TreeCore) Establish(fork sim.Time) error {
	if !t.dirty && t.cur == fork {
		return nil
	}
	if nd := t.lookup(fork); nd != nil {
		if err := t.restore(nd); err != nil {
			return err
		}
		t.touch(nd)
		t.count(t.hits)
		t.cur, t.dirty = fork, false
		return nil
	}
	if nd := t.deepestBefore(fork); nd != nil {
		if err := t.restore(nd); err != nil {
			return err
		}
		t.touch(nd)
		t.count(t.extends)
	} else {
		// No retained prefix at or before fork: rebuild from zero. A
		// fresh kernel is already pristine; Rebuild Resets otherwise,
		// invalidating the whole tree.
		if !t.virgin {
			t.recycleAll()
			t.Rebuild()
		}
		t.count(t.rebuilds)
	}
	t.virgin = false
	if err := t.K.RunUntil(fork - 1); err != nil {
		return err
	}
	nd := t.Pool.Get()
	if err := t.K.SnapshotInto(&nd.cp); err != nil {
		t.Pool.Put(nd)
		return err
	}
	nd.mst = sim.SnapshotModelState(t.Model, nd.mst)
	nd.fork = fork
	t.insert(nd)
	t.touch(nd)
	t.evict()
	t.cur, t.dirty = fork, false
	if t.nodesGauge != nil {
		t.nodesGauge.Set(float64(len(t.nodes)))
	}
	return nil
}

// Fork windows. Between two consecutive instants at which the golden
// run executes anything — an idle window (a, b) — nothing reads or
// writes model state, so a single permanent fault injected at any
// instant of the window is the same experiment from b on, provided the
// injection itself stirs nothing before b (DESIGN §14 has the argument).
// The host calls Recall before Establish, Window between Respawn and the
// run to the horizon, and Remember with the outcome of a run that ended
// cleanly; a host that calls none of them runs every scenario.

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

// Recall answers sc from the window memo: ok when a run with sc's
// content, forked at the same fork and injected before the same window
// end, was silent and ended cleanly. The outcome carries sc itself.
// Nothing is established, respawned or simulated for a hit.
func (t *TreeCore) Recall(sc fault.Scenario, fork sim.Time) (fault.Outcome, bool) {
	if fork != t.winFork {
		return fault.Outcome{}, false
	}
	key, start, ok := windowKeyOf(sc)
	if !ok || start >= t.winEnd {
		return fault.Outcome{}, false
	}
	v, ok := t.memo[key]
	if !ok {
		return fault.Outcome{}, false
	}
	t.count(t.windowHits)
	return fault.Outcome{Scenario: sc, Class: v.class, Detail: v.detail}, true
}

// Window runs a keyed scenario's first leg, with the kernel established
// at sc's fork and st respawned on it: to the last instant before the
// golden run next executes anything (b), when sc injects before b. The
// leg is silent iff the kernel activated nothing but the stressor's own
// two activations (the initial one and the injection), took no
// notification but the stressor's own one, still has b as its next
// event, and the stressor performed its one action without error: then
// model state at b-1 is golden state plus what Inject made of sc's
// content, whichever instant of the window sc named, and Remember may
// keep the verdict. A loud leg is simply the start of an ordinary run.
// The caller runs on to the horizon either way.
func (t *TreeCore) Window(st *Stressor, sc fault.Scenario) error {
	t.hasPending = false
	key, start, ok := windowKeyOf(sc)
	if !ok {
		return nil
	}
	b := t.K.NextEventTime()
	if t.cur != t.winFork || b != t.winEnd {
		t.winFork, t.winEnd = t.cur, b
		clear(t.memo)
	}
	if start >= b {
		return nil
	}
	before := t.K.Stats()
	if err := t.K.RunUntil(min(b-1, st.Horizon)); err != nil {
		return err
	}
	after := t.K.Stats()
	if after.Activations-before.Activations == 2 && after.Notifications-before.Notifications == 1 &&
		t.K.NextEventTime() == b && st.Finished() && len(st.InjectionErrors()) == 0 {
		t.pending, t.hasPending = key, true
	} else {
		t.count(t.windowLoud)
	}
	return nil
}

// Remember keeps out as the verdict of every later scenario Recall finds
// equivalent to the one that just ran, when that run's window leg was
// silent. The host calls it only for a run that ended cleanly — one that
// errored, panicked or timed out is never remembered.
func (t *TreeCore) Remember(out fault.Outcome) {
	if !t.hasPending {
		return
	}
	t.hasPending = false
	if t.memo == nil {
		t.memo = make(map[windowKey]windowVerdict)
	}
	t.memo[t.pending] = windowVerdict{class: out.Class, detail: out.Detail}
}

// NoteEarlyExit records one converged run that skipped saved simulated
// time.
func (t *TreeCore) NoteEarlyExit(saved sim.Time) {
	if t.earlyExits != nil {
		t.earlyExits.Inc()
		t.savedNs.Add(uint64(saved))
	}
}

// Recycle implements the RecyclableSession half of the hosting
// session: every retained node goes back to the runner pool. Safe
// after abandonment — node buffers are fully overwritten on reuse.
func (t *TreeCore) Recycle() { t.recycleAll() }

func (t *TreeCore) restore(nd *TreeNode) error {
	if err := t.K.Restore(&nd.cp); err != nil {
		return err
	}
	t.Model.RestoreState(nd.mst)
	return nil
}

func (t *TreeCore) lookup(fork sim.Time) *TreeNode {
	for _, nd := range t.nodes {
		if nd.fork == fork {
			return nd
		}
	}
	return nil
}

func (t *TreeCore) deepestBefore(fork sim.Time) *TreeNode {
	var best *TreeNode
	for _, nd := range t.nodes {
		if nd.fork < fork {
			best = nd // nodes sorted ascending
		}
	}
	return best
}

func (t *TreeCore) insert(nd *TreeNode) {
	i := len(t.nodes)
	t.nodes = append(t.nodes, nd)
	for i > 0 && t.nodes[i-1].fork > nd.fork {
		t.nodes[i] = t.nodes[i-1]
		i--
	}
	t.nodes[i] = nd
}

func (t *TreeCore) touch(nd *TreeNode) {
	t.tick++
	nd.tick = t.tick
}

// evict enforces the node-count and byte budgets, dropping the least
// recently used nodes first (never the one just touched).
func (t *TreeCore) evict() {
	for len(t.nodes) > 1 {
		over := len(t.nodes) > t.Cfg.MaxNodes
		if !over {
			bytes := 0
			for _, nd := range t.nodes {
				bytes += nd.cp.ApproxBytes()
			}
			over = bytes > DefaultTreeMaxBytes
		}
		if !over {
			return
		}
		lru := 0
		for i, nd := range t.nodes {
			if nd.tick < t.nodes[lru].tick {
				lru = i
			}
		}
		if t.nodes[lru].tick == t.tick {
			return // everything else already evicted
		}
		nd := t.nodes[lru]
		copy(t.nodes[lru:], t.nodes[lru+1:])
		t.nodes[len(t.nodes)-1] = nil
		t.nodes = t.nodes[:len(t.nodes)-1]
		t.Pool.Put(nd)
		t.count(t.evictions)
	}
}

func (t *TreeCore) recycleAll() {
	for i, nd := range t.nodes {
		t.Pool.Put(nd)
		t.nodes[i] = nil
	}
	t.nodes = t.nodes[:0]
	t.dirty = true
	if t.nodesGauge != nil {
		t.nodesGauge.Set(0)
	}
}

func (t *TreeCore) count(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// GoldenTrajectory is the golden run's incremental state-hash stream:
// Hashes[i] is the digest of model + scheduler state after running to
// (i+1)*Stride, for every stride instant strictly before Horizon. The
// digests are derived from the Snapshottable/Hashable capture — no
// full snapshots are taken.
type GoldenTrajectory struct {
	Stride  sim.Time
	Horizon sim.Time
	// NEvents/NProcs are the golden elaboration's object counts; live
	// runs restrict their scheduler hash to this prefix so the
	// stressor's own event/process (elaborated after the model) never
	// enters the digest.
	NEvents, NProcs int
	Hashes          []uint64
}

// RecordTrajectory runs a freshly elaborated golden kernel (no
// stressor) to horizon in stride chunks, recording the state digest at
// each stride instant. Chunked RunUntil is observationally identical
// to one full run, so the recorded digests are exactly what a faulty
// run's model would hash to at those instants had the fault never
// perturbed anything. onStride is called with the kernel standing at
// each stride instant, so the caller can record model-specific state
// beside the digest (Model.Record).
func RecordTrajectory(k *sim.Kernel, m sim.Hashable, stride, horizon sim.Time, onStride func()) (*GoldenTrajectory, error) {
	stride = normalizeStride(stride, horizon)
	tr := &GoldenTrajectory{Stride: stride, Horizon: horizon}
	tr.NEvents, tr.NProcs = k.Elaborated()
	for t := stride; t < horizon; t += stride {
		if err := k.RunUntil(t); err != nil {
			return nil, err
		}
		onStride()
		tr.Hashes = append(tr.Hashes, tr.digest(k, m))
	}
	return tr, nil
}

// normalizeStride resolves the default trajectory stride — horizon/16,
// minimum one time unit. Hosts key their trajectory caches by the
// normalized value.
func normalizeStride(stride, horizon sim.Time) sim.Time {
	if stride <= 0 {
		stride = horizon / 16
	}
	if stride <= 0 {
		stride = 1
	}
	return stride
}

// digest folds scheduler + model state into one hash value.
func (tr *GoldenTrajectory) digest(k *sim.Kernel, m sim.Hashable) uint64 {
	h := sim.NewStateHash()
	k.HashScheduler(&h, tr.NEvents, tr.NProcs)
	m.HashState(&h)
	return h.Sum()
}

// RunToHorizon advances an injected run from its current time to the
// horizon in trajectory-stride chunks, checking for convergence at
// each stride instant once the stressor has performed every scheduled
// action (a pending revert or intermittent pulse could still push the
// run off the golden trajectory, so earlier instants are not
// compared). On a digest match the run terminates immediately:
// converged state plus an empty remaining stressor timeline implies
// the suffix is byte-identical to the golden run's, so the final
// observation is the golden one. Runs whose injections errored never
// converge here — their campaign-error outcome requires the full path.
func (tr *GoldenTrajectory) RunToHorizon(k *sim.Kernel, m sim.Hashable, st *Stressor) (converged bool, at sim.Time, err error) {
	now := k.Now()
	checkable := true
	checked := false
	for i := range tr.Hashes {
		t := sim.Time(i+1) * tr.Stride
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
		if tr.digest(k, m) == tr.Hashes[i] {
			return true, t, nil
		}
	}
	if err := k.RunUntil(tr.Horizon); err != nil {
		return false, 0, err
	}
	return false, 0, nil
}
