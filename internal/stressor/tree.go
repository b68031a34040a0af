package stressor

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Checkpoint trees + convergence early-exit: the one pooled run path,
// a campaign's (Campaign.Checkpointer) and a single call's alike. The host
// retains a budgeted set of golden-prefix snapshots ("nodes"), one per
// injection instant its sessions have visited, and a session establishes
// each scenario from the deepest one at or before its fork time,
// whichever session took it, instead of re-simulating from time zero. A
// run checksConvergence admits whose state digest, hashed every
// horizon/16, returns to a trajectory its session may join — golden's, or
// in a campaign a finished sibling's (siblings.go) — stops there and
// inherits that run's ending — byte-identical to running it out.

const (
	// treeMaxNodes bounds the host's retained nodes, per slot it has
	// built.
	treeMaxNodes = 32
	// treeMaxBytes bounds the kernel-side bytes the host's nodes retain,
	// per slot it has built (model-state captures are not counted; see
	// Checkpoint.ApproxBytes).
	treeMaxBytes = 16 << 20
)

// TreeConfig parameterizes a checkpoint-tree session.
type TreeConfig struct {
	// Metrics, when non-nil, receives tree/early-exit counters labeled
	// with Campaign. The campaign Result is identical without it.
	Metrics *obs.Registry
	// Campaign labels the counters.
	Campaign string
	sign     bool // outcome signatures: set for a Source and the signed calls
	// scope is the campaign the session runs for, whose runs it may join;
	// nil outside one, where a run joins golden alone.
	scope *campaignScope
}

// RecyclableSession is a CheckpointSession with a Recycle method.
//
// Deprecated: sessions own no nodes, so there is nothing to recycle and
// the campaign never calls Recycle; the type stays only for callers that
// still name it.
type RecyclableSession interface {
	CheckpointSession
	Recycle()
}

// treeNode is one golden-prefix snapshot: the kernel checkpoint and the
// paired model-state capture at fork-1 (the host's root, at time zero
// before anything ran, is one too). used is the epoch it was last
// restored or published in, its LRU stamp.
type treeNode struct {
	fork  sim.Time
	bytes int // cp.ApproxBytes() when published
	used  atomic.Uint64
	cp    sim.Checkpoint
	mst   any
}

// goldenNodes is the host's set of golden-prefix nodes: sorted by fork,
// no two at one fork, immutable once published and shared by every
// session of the host. Sessions restore from it under the read lock and
// publish into it, or evict from it, under the write lock, and keep no
// node pointer once they let go of the lock. Evicted nodes go to free,
// whose buffers SnapshotInto and SnapshotState overwrite, so a warm host
// publishes without allocating.
type goldenNodes struct {
	mu    sync.RWMutex
	nodes []*treeNode
	free  []*treeNode
	bytes int // the nodes' kernel-side bytes
	// max is the node budget when set (tests); 0 is treeMaxNodes per
	// slot built.
	max int
	// epoch counts publishes, the LRU clock. Readers only read it, so a
	// run of hits writes nothing shared.
	epoch uint64
}

func byFork(nd *treeNode, fork sim.Time) int { return cmp.Compare(nd.fork, fork) }

// restoreNode restores the host's deepest node at or before fork into sl,
// as sl stands, and reports that node's fork; ok is false when the host
// holds none.
func (h *Host[S, R]) restoreNode(sl *hostSlot[S], fork sim.Time) (at sim.Time, ok bool, err error) {
	g := &h.tree
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, found := slices.BinarySearchFunc(g.nodes, fork, byFork)
	if !found {
		i--
	}
	if i < 0 {
		return 0, false, nil
	}
	nd := g.nodes[i]
	if err := sl.restore(nd); err != nil {
		return 0, false, err
	}
	if nd.used.Load() != g.epoch {
		nd.used.Store(g.epoch)
	}
	return nd.fork, true, nil
}

// publish snapshots sl, which stands golden at fork-1, as the host's node
// at fork, unless another session published one there first. The budgets
// are enforced next, least recently used node first and never the one at
// fork; evicted counts the nodes dropped.
func (h *Host[S, R]) publish(sl *hostSlot[S], fork sim.Time, evicted *obs.Counter) error {
	h.mu.Lock()
	maxNodes, maxBytes := treeMaxNodes*h.built, treeMaxBytes*h.built
	h.mu.Unlock()
	g := &h.tree
	if g.max > 0 {
		maxNodes = g.max
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.epoch++
	i, found := slices.BinarySearchFunc(g.nodes, fork, byFork)
	if found {
		g.nodes[i].used.Store(g.epoch)
		return nil
	}
	nd := &treeNode{}
	if n := len(g.free); n > 0 {
		nd, g.free = g.free[n-1], g.free[:n-1]
	}
	if err := sl.k.SnapshotInto(&nd.cp); err != nil {
		g.free = append(g.free, nd)
		return err
	}
	nd.mst = sl.s.SnapshotState(nd.mst)
	nd.fork, nd.bytes = fork, nd.cp.ApproxBytes()
	nd.used.Store(g.epoch)
	g.nodes = slices.Insert(g.nodes, i, nd)
	g.bytes += nd.bytes
	for len(g.nodes) > 1 && (len(g.nodes) > maxNodes || g.bytes > maxBytes) {
		lru := -1
		for j, n := range g.nodes {
			if n != nd && (lru < 0 || n.used.Load() < g.nodes[lru].used.Load()) {
				lru = j
			}
		}
		g.bytes -= g.nodes[lru].bytes
		g.free = append(g.free, g.nodes[lru])
		g.nodes = slices.Delete(g.nodes, lru, lru+1)
		inc(evicted)
	}
	return nil
}

// NewTreeSession implements Checkpointer. The session checks a slot out
// of the pool on first use, as the slot's last user left it, and owns it
// until Close hands it back, so a campaign's sessions reuse the
// prototypes the previous one built instead of elaborating and allocating
// new ones. A session the campaign abandons is never closed: its slot —
// perhaps torn, perhaps still running — simply never returns. The nodes
// are the host's, so abandoning a session loses none. A ReuseOff host's
// session takes no slot: it builds the prototype afresh for every run.
func (h *Host[S, R]) NewTreeSession(cfg TreeConfig) CheckpointSession {
	return &session[S, R]{h: h, cfg: cfg}
}

// session is one worker's tree session: a slot, the fork it was last
// established at, the fork-window memo and its metrics. Nodes are taken
// at fork-1: restoring there and respawning the slot's stressor gives it
// its initial activation one instant before the injection, which
// reproduces a full run's schedule at the injection instant exactly (the
// stressor's process id is the highest either way, so it evaluates last
// within an instant).
type session[S sim.State, R any] struct {
	h     *Host[S, R]
	cfg   TreeConfig
	sl    *hostSlot[S] // nil until init, and again after Close
	pages *pageCounters

	cur sim.Time // the fork the slot was last established at

	// set is the trajectories a run may join: the campaign's, or golden
	// alone. rec buffers the marks of the run in flight for the
	// campaign's set, nil outside a campaign; marks counts those of a
	// run that reached the horizon, which publishes when it has some.
	set   *trajSet[S, R]
	rec   *runRecord[R]
	marks int
	// abandoned is set by the campaign when it gives up on the session
	// (timeout, panic): its late runs publish nothing.
	abandoned atomic.Bool

	// The fork-window memo (see window): the kernel was last established
	// in the golden idle window (winFork-1, winEnd); memo is what the
	// silent runs injected inside it came to, in the order they ran, and
	// pending is the key of the run in flight, set while its window leg
	// has been silent. recall checks memo last-first: a campaign
	// dispatches a window's instants of one descriptor (a family,
	// universePlan.family) back to back, and one worker runs a whole family
	// (claim), so a sorted list hits on its first compare; a StopOnFirst
	// list, dispatched in index order, meets a window's descriptors
	// instant after instant and finds each further back.
	winFork, winEnd sim.Time
	memo            []windowVerdict
	pending         content
	hasPending      bool

	hits, extends, rebuilds, evictions *obs.Counter
	earlyExits, siblingExits, savedNs  *obs.Counter
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

// init lazily checks out the session's slot, as it stands.
func (s *session[S, R]) init() {
	if s.sl != nil {
		return
	}
	s.sl = s.h.take()
	s.memo = s.sl.memo[:0]
	s.set = s.h.traj.only
	if sc := s.cfg.scope; sc != nil {
		if set := s.h.campaignSet(sc); set != nil {
			s.set, s.rec = set, set.record()
		}
	}
	if m := s.cfg.Metrics; m != nil {
		l := obs.L("campaign", s.cfg.Campaign)
		s.hits = m.Counter("campaign.tree_hits", l)
		s.extends = m.Counter("campaign.tree_extends", l)
		s.rebuilds = m.Counter("campaign.tree_rebuilds", l)
		s.evictions = m.Counter("campaign.tree_evictions", l)
		s.earlyExits = m.Counter("campaign.early_exits", l)
		s.siblingExits = m.Counter("campaign.sibling_exits", l)
		s.savedNs = m.Counter("campaign.early_exit_saved_sim_ns", l)
		s.windowHits = m.Counter("campaign.fork_window_hits", l)
		s.windowLoud = m.Counter("campaign.fork_window_loud", l)
		if p, ok := any(s.sl.s).(pagedState); ok {
			// A pooled slot's counters still hold its earlier runs' work.
			s.pages = &pageCounters{src: p, published: p.PagedStats(),
				rehashed: m.Counter("campaign.state_pages_rehashed", l),
				restored: m.Counter("campaign.state_pages_restored", l)}
		}
	}
}

// Run implements CheckpointSession, producing the exact outcome
// RunScenario — RunScenarioSigned, when the session signs — yields for the
// same scenario.
func (s *session[S, R]) Run(sc fault.Scenario, fork sim.Time) fault.Outcome {
	if out, ok := s.recall(sc, fork); ok {
		return out
	}
	out, err := s.execute(sc, fork, true, nil)
	s.pages.publish()
	if err != nil {
		return errorOutcome(sc, err)
	}
	s.remember(out)
	if s.marks > 0 && s.set.publish(s.rec, &s.abandoned) {
		s.rec = s.set.record()
	}
	return out
}

// abandon is called by the campaign when it gives up on the session.
func (s *session[S, R]) abandon() { s.abandoned.Store(true) }

// execute establishes the slot at fork, runs sc and classifies it (see
// outcome for fn); with memo, the run's window leg decides whether
// remember may keep the verdict. A run checksConvergence admits stops
// once it joins a trajectory of its set. A ReuseOff host's session rebuilds: the
// oracle, which takes no slot and publishes no node and no trajectory.
func (s *session[S, R]) execute(sc fault.Scenario, fork sim.Time, memo bool, fn func(S)) (fault.Outcome, error) {
	s.marks = 0
	if s.h.ReuseOff {
		return s.h.rebuild(sc, s.cfg.sign, fn)
	}
	s.init()
	if err := s.establish(fork); err != nil {
		return fault.Outcome{}, err
	}
	sl := s.sl
	sl.st.Respawn(sc, s.h.horizon)
	if memo {
		if err := s.window(&sl.st, sc); err != nil {
			return fault.Outcome{}, err
		}
	}
	if checksConvergence(sc, fn != nil, s.rec != nil) {
		// A run whose injections errored never converges.
		joined, n, at, err := s.runToHorizon()
		if err != nil {
			return fault.Outcome{}, err
		}
		if joined != nil {
			if s.earlyExits != nil {
				s.earlyExits.Inc()
				s.savedNs.Add(uint64(s.h.horizon - at))
				if joined != &s.h.traj.golden {
					s.siblingExits.Inc()
				}
			}
			out := s.h.classify(sc, s.h.m.Converged(sl.s, &joined.r, n))
			if s.cfg.sign {
				// On the joined trajectory, the run ends in its final state.
				out.Signature = sim.MixSignature(joined.final, uint64(out.Class))
			}
			return out, nil
		}
	} else if err := sl.k.RunUntil(s.h.horizon); err != nil {
		return fault.Outcome{}, err
	}
	if err := s.h.injectionError(sc, &sl.st); err != nil {
		return fault.Outcome{}, err
	}
	var rec *runRecord[R]
	if s.marks > 0 {
		rec = s.rec
	}
	return s.h.outcome(sc, sl, s.cfg.sign, rec, s.marks, fn), nil
}

// Close implements CheckpointSession, returning the slot to the host's
// pool; the nodes stay with the host. Method-only kernels hold no
// goroutines, which is what lets the campaign abandon a session without
// closing it.
func (s *session[S, R]) Close() {
	if s.sl != nil {
		s.sl.memo = s.memo
		s.h.release(s.sl)
		s.sl, s.memo = nil, nil
	}
	if s.rec != nil {
		s.set.giveBack(s.rec)
		s.rec = nil
		s.cfg.scope.leave()
	}
	s.set = nil
}

// Establish is establish for tests that pin the tree's steady state: the
// slot is left golden at fork-1, as a run forked at fork starts.
func (s *session[S, R]) Establish(fork sim.Time) error {
	s.init()
	return s.establish(fork)
}

// Prototype is the prototype in the session's slot, for tests of the slot
// pool: valid from the first run until Close.
func (s *session[S, R]) Prototype() sim.State { return s.sl.s }

// establish leaves kernel and model in the golden state at simulated
// time fork-1, with a host node at fork for the next scenario — or, for a
// fork at zero, as Build left them: the root, which needs no node. The
// host's deepest node at or before fork is restored into the slot as it
// stands (a hit when it is at fork); when the host has no such node, the
// host's root is, taking the slot back to time zero. Short of fork, the
// golden run is then extended to it and the node published.
func (s *session[S, R]) establish(fork sim.Time) error {
	sl := s.sl
	s.cur = fork
	at, ok, err := s.h.restoreNode(sl, fork)
	switch {
	case err != nil:
		return err
	case ok && at == fork:
		inc(s.hits)
		return nil
	case ok:
		inc(s.extends)
	default:
		if err := sl.restore(&s.h.root); err != nil {
			return err
		}
		inc(s.rebuilds)
		if fork == 0 {
			return nil
		}
	}
	if err := sl.k.RunUntil(fork - 1); err != nil {
		return err
	}
	return s.h.publish(sl, fork, s.evictions)
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

// windowVerdict is what a silent run of key came to, signature included:
// neither Start nor Name enters the final state (fault.Injector).
type windowVerdict struct {
	key    content
	class  fault.Classification
	detail string
	sig    uint64
}

// windowKeyOf keys sc when its whole timeline is one action: a single
// permanent fault. Transients, intermittents and multi-fault scenarios
// act again after the window and are never keyed.
func windowKeyOf(sc fault.Scenario) (key content, start sim.Time, ok bool) {
	if len(sc.Faults) != 1 || sc.Faults[0].Class != fault.Permanent {
		return key, 0, false
	}
	return contentOf(&sc.Faults[0]), sc.Faults[0].Start, true
}

// checksConvergence is the one early-exit rule: a run of sc is run in
// stride legs and compared with the trajectories its session may join
// exactly when the caller does not keep the prototype, which an early
// exit never carries to the horizon, and either the session runs for a
// campaign, whose finished runs permanent faults join too (DESIGN §14),
// or none of sc's faults is permanent: those rarely re-join golden, the
// one trajectory outside a campaign.
func checksConvergence(sc fault.Scenario, keepsPrototype, campaign bool) bool {
	return !keepsPrototype && (campaign || !slices.ContainsFunc(sc.Faults, func(d fault.Descriptor) bool { return d.Class == fault.Permanent }))
}

// recall answers sc from the window memo: ok when a run with sc's
// content, forked at the same fork and injected before the same window
// end, was silent and ended cleanly. The outcome carries sc itself.
// Nothing is established, respawned or simulated for a hit.
func (s *session[S, R]) recall(sc fault.Scenario, fork sim.Time) (fault.Outcome, bool) {
	if fork != s.winFork {
		return fault.Outcome{}, false
	}
	key, start, ok := windowKeyOf(sc)
	if !ok || start >= s.winEnd {
		return fault.Outcome{}, false
	}
	for i := len(s.memo) - 1; i >= 0; i-- {
		if v := &s.memo[i]; v.key == key {
			inc(s.windowHits)
			return fault.Outcome{Scenario: sc, Class: v.class, Detail: v.detail, Signature: v.sig}, true
		}
	}
	return fault.Outcome{}, false
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
func (s *session[S, R]) window(st *Stressor, sc fault.Scenario) error {
	s.hasPending = false
	key, start, ok := windowKeyOf(sc)
	if !ok {
		return nil
	}
	k := s.sl.k
	b := k.NextEventTime()
	if s.cur != s.winFork || b != s.winEnd {
		s.winFork, s.winEnd, s.memo = s.cur, b, s.memo[:0]
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
func (s *session[S, R]) remember(out fault.Outcome) {
	if !s.hasPending {
		return
	}
	s.hasPending = false
	s.memo = append(s.memo, windowVerdict{key: s.pending, class: out.Class, detail: out.Detail, sig: out.Signature})
}

// trajectory is the golden run's stride grid and record, taken by
// NewHost's golden walk: golden's marks are at every stride instant
// (i+1)*stride strictly before the horizon, digest i being that of model
// + scheduler state there. The digests are derived from the
// Snapshottable/Hashable capture — no full snapshots are taken.
type trajectory[S sim.State, R any] struct {
	stride sim.Time
	// nEvents/nProcs are the prototype's elaboration's object counts;
	// live runs restrict their scheduler hash to this prefix so the
	// stressor's own event/process (elaborated after the model, once per
	// slot) never enters the digest.
	nEvents, nProcs int
	golden          runRecord[R]
	// only is the set of golden alone, which a session outside a campaign
	// joins.
	only *trajSet[S, R]
}

// runToHorizon advances the injected run from its current time to the
// horizon in trajectory-stride chunks. At each stride instant once the
// stressor has performed every scheduled action (a pending revert or
// intermittent pulse could still push the run off a trajectory, so
// earlier instants are not compared), the run's digest is looked up in
// its set; a match whose history it may join (runRecord.joins) ends the
// run there, returning the trajectory joined and the mark n it joined at:
// equal state plus an empty remaining stressor timeline implies the
// suffix is byte-identical to that run's. Otherwise, in a campaign, the
// instant is marked in the session's record, and a run that reaches the
// horizon leaves its count in s.marks. Runs whose injections
// errored never converge here — their campaign-error outcome requires the
// full path.
func (s *session[S, R]) runToHorizon() (joined *runRecord[R], n int, at sim.Time, err error) {
	k, st, tj, m := s.sl.k, &s.sl.st, &s.h.traj, s.h.m
	now := k.Now()
	checkable := true
	checked := false
	marks := 0
	for i := range tj.golden.digests {
		t := sim.Time(i+1) * tj.stride
		if t <= now {
			continue
		}
		if err := k.RunUntil(t); err != nil {
			return nil, 0, 0, err
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
		d := s.sl.digest(tj.nEvents, tj.nProcs)
		found := s.set.find(i, d)
		var hist uint64
		if found != nil || s.rec != nil {
			hist = m.HistoryKey(s.sl.s)
		}
		if found != nil && found.joins(i, hist) {
			return found, i - found.first, t, nil
		}
		if s.rec != nil {
			m.Record(&s.rec.r, s.sl.s, marks, nil)
			s.rec.mark(marks, i, d, hist)
			marks++
		}
	}
	if err := k.RunUntil(s.h.horizon); err != nil {
		return nil, 0, 0, err
	}
	s.marks = marks
	return nil, 0, 0, nil
}
