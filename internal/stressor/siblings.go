package stressor

import (
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Sibling convergence (DESIGN §14). A run that, at a stride instant after
// its stressor has finished, passes the digest of a run its campaign has
// already finished — golden, the set's first member, or a sibling — goes
// on exactly as that run went on: the digest covers the dynamic state and
// the scheduler, and neither run has anything left to inject. It stops
// there, and the model splices its own history with the finished run's
// suffix (Model.Converged). The digest leaves out the history a model only
// appends to; where future appends read it (a dedup), Model.HistoryKey
// says what they read, and a run joins only a trajectory whose history
// there was the same or empty.

// siblingMaxRuns bounds the finished runs one campaign's trajectory set
// holds besides golden. Past it the set takes no more; the runs it holds
// still answer.
const siblingMaxRuns = 1024

// strideKey is a stride instant of a trajectory: its index and the slot
// digest there.
type strideKey struct {
	i      int
	digest uint64
}

// runRecord is one trajectory a later run may join: a finished run's
// digests and history keys at each stride instant it was marked at, from
// stride index first on, its final-state digest, taken after Observe as
// signatures are, and what the model recorded of it (Model.Record).
type runRecord[R any] struct {
	first   int
	digests []uint64
	hists   []uint64
	final   uint64
	r       R
}

// mark is the n-th stride mark: stride index first+n.
func (rec *runRecord[R]) mark(n int, i int, digest, hist uint64) {
	if n == 0 {
		rec.first = i
	}
	rec.digests = append(rec.digests[:n], digest)
	rec.hists = append(rec.hists[:n], hist)
}

// joins reports whether a run with history key hist at stride index i
// may take rec's suffix from there: rec's history then was the same, or
// empty, so whatever a dedup lets rec append it lets the run append too.
func (rec *runRecord[R]) joins(i int, hist uint64) bool {
	h := rec.hists[i-rec.first]
	return h == 0 || h == hist
}

// trajSet is the trajectories a run may join: golden's and, for a
// campaign's set, those of the runs its sessions have finished. It maps
// each marked stride instant to the first run published there. A
// published record never changes until the set goes back to its host, so
// a reader keeps what find returned after letting go of the lock.
type trajSet[S sim.State, R any] struct {
	h *Host[S, R]
	// fixed marks the host's set of golden alone, which nothing publishes
	// into: its readers, one-shot runs on every worker, take no lock.
	fixed bool
	mu    sync.RWMutex
	idx   map[strideKey]*runRecord[R]
	runs  []*runRecord[R] // published, golden aside
	free  []*runRecord[R] // buffers for the sessions' next runs
}

// newTrajSet is a set holding golden alone.
func (h *Host[S, R]) newTrajSet() *trajSet[S, R] {
	t := &trajSet[S, R]{h: h, idx: make(map[strideKey]*runRecord[R])}
	t.index(&h.traj.golden)
	return t
}

// index maps rec's marks that no earlier run holds to rec, and reports
// whether any was.
func (t *trajSet[S, R]) index(rec *runRecord[R]) bool {
	took := false
	for n, d := range rec.digests {
		k := strideKey{rec.first + n, d}
		if _, ok := t.idx[k]; !ok {
			t.idx[k] = rec
			took = true
		}
	}
	return took
}

// find is the run published at stride index i with digest, nil when none.
func (t *trajSet[S, R]) find(i int, digest uint64) *runRecord[R] {
	if t.fixed {
		return t.idx[strideKey{i, digest}]
	}
	t.mu.RLock()
	rec := t.idx[strideKey{i, digest}]
	t.mu.RUnlock()
	return rec
}

// publish adds rec, a run that ended cleanly, unless its session was
// abandoned, the set is full or every mark of rec is held already. It
// reports whether the set took rec; if so, the caller lets go of it.
func (t *trajSet[S, R]) publish(rec *runRecord[R], abandoned *atomic.Bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if abandoned.Load() || len(t.runs) >= siblingMaxRuns || !t.index(rec) {
		return false
	}
	t.runs = append(t.runs, rec)
	return true
}

// record is a buffer for a session's next run.
func (t *trajSet[S, R]) record() *runRecord[R] {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.free); n > 0 {
		rec := t.free[n-1]
		t.free = t.free[:n-1]
		return rec
	}
	return &runRecord[R]{}
}

// giveBack returns a session's unpublished buffer.
func (t *trajSet[S, R]) giveBack(rec *runRecord[R]) {
	t.mu.Lock()
	t.free = append(t.free, rec)
	t.mu.Unlock()
}

// release implements sharedSet: the campaign is over and every session
// that read the set has closed, so its buffers go back to the host for
// the next campaign, emptied down to golden.
func (t *trajSet[S, R]) release() {
	t.free = append(t.free, t.runs...)
	clear(t.runs)
	t.runs = t.runs[:0]
	clear(t.idx)
	t.index(&t.h.traj.golden)
	h := t.h
	h.mu.Lock()
	h.sets = append(h.sets, t)
	h.mu.Unlock()
}

// sharedSet is a prototype's trajectory set as a campaign holds it.
type sharedSet interface{ release() }

// campaignScope is what one Execute's sessions share: the prototype's
// trajectory set, taken by the first session that needs one. refs counts
// the Execute itself and every session that joined; the last to leave
// gives the set back. A session the campaign abandons never leaves, so
// its set never goes back: a late run can still read it.
type campaignScope struct {
	mu   sync.Mutex
	refs int
	set  sharedSet
}

// leave drops one reference.
func (sc *campaignScope) leave() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.refs--; sc.refs == 0 && sc.set != nil {
		sc.set.release()
		sc.set = nil
	}
}

// campaignSet joins sc, taking the host's spare set for it when it has
// none yet; nil, joining nothing, when sc holds another host's set.
func (h *Host[S, R]) campaignSet(sc *campaignScope) *trajSet[S, R] {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.set == nil {
		h.mu.Lock()
		if n := len(h.sets); n > 0 {
			sc.set = h.sets[n-1]
			h.sets = h.sets[:n-1]
		}
		h.mu.Unlock()
		if sc.set == nil {
			sc.set = h.newTrajSet()
		}
	}
	t, ok := sc.set.(*trajSet[S, R])
	if !ok || t.h != h {
		return nil
	}
	sc.refs++
	return t
}
