package fabric

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/stressor"
)

// CoordConfig configures a Coordinator.
type CoordConfig struct {
	// Campaign names the campaign (journal headers, summaries).
	Campaign string
	// Spec is the opaque campaign description handed to workers, which
	// materialize it through their Resolver. The coordinator never
	// interprets it; it only requires that resolving it reproduces
	// Scenarios (enforced via the universe hash in every lease).
	Spec json.RawMessage
	// Scenarios is the full, pre-dedup scenario universe — the
	// coordinator's side of the determinism contract, used for entry
	// validation, progress accounting and the final merge.
	Scenarios []fault.Scenario
	// Shards is the partition count (>= 1). More shards than workers is
	// normal: idle workers lease the next pending shard, which is what
	// load-balances heterogeneous machines.
	Shards int
	// Dedup and StopOnFirst mirror the engine knobs; every worker runs
	// its shard with exactly these settings.
	Dedup       bool
	StopOnFirst bool
	// DataDir holds the per-shard journals (shard-N.journal). Journals
	// found there at startup are adopted, so a restarted coordinator
	// resumes its campaign instead of rerunning it.
	DataDir string
	// Codec is never read: shard journals are created binary.
	//
	// Deprecated: the benchmark still sets it; it goes with that
	// (ROADMAP 1(a)).
	Codec journal.Codec
	// LeaseTTL is the heartbeat deadline: a lease not flushed within it
	// is considered dead and returns to the pool. Default 10s.
	LeaseTTL time.Duration
	// StealAfter is the no-progress window after which an idle worker
	// may steal a still-heartbeating lease (stuck or pathologically
	// slow holder). Default 3×LeaseTTL.
	StealAfter time.Duration
	// Now is the clock (injectable for deterministic expiry tests).
	Now func() time.Time
	// Text optionally renders the merged result for GET /result?format=text.
	Text func(*stressor.Result) string
	// Log receives coordinator events.
	Log *slog.Logger
}

type shardState struct {
	state    string // "pending" | "leased" | "done"
	worker   string
	attempt  int
	deadline time.Time // lease expiry, extended by every flush
	progress time.Time // last time recorded grew (steal decisions)
	entries  map[int]journal.Entry
	order    []int // recorded indices in arrival order (lease replay)
	// w appends to the shard's journal until the shard is done; the flush
	// that completes it closes w — the fsync — outside mu, then clears it.
	w     *journal.Writer
	owned int
}

// Coordinator runs the lease/flush/merge protocol for one campaign.
type Coordinator struct {
	cfg      CoordConfig
	universe string

	done      chan struct{} // closed at finalization
	dismissed chan struct{} // closed once every worker has also heard of it

	mu     sync.Mutex
	shards []*shardState
	// workers holds every worker that registered or asked for a lease;
	// the value says it has not been told the campaign is done yet.
	workers   map[string]bool
	closed    bool
	finalized bool
	result    *stressor.Result
	mergeErr  error
	waiters   []chan struct{}
	total     int // unique-run positions across all shards
}

// NewCoordinator validates cfg, opens (or adopts) the shard journals
// and returns a coordinator ready to serve.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.Campaign == "" {
		cfg.Campaign = "fabric"
	}
	if len(cfg.Scenarios) == 0 {
		return nil, fmt.Errorf("fabric: coordinator needs a scenario universe")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fabric: shards %d, want >= 1", cfg.Shards)
	}
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("fabric: coordinator needs a data directory")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.StealAfter <= 0 {
		cfg.StealAfter = 3 * cfg.LeaseTTL
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	for _, sc := range cfg.Scenarios {
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("fabric: %w", err)
		}
	}
	c := &Coordinator{
		cfg:       cfg,
		universe:  stressor.UniverseHash(cfg.Scenarios),
		workers:   map[string]bool{},
		done:      make(chan struct{}),
		dismissed: make(chan struct{}),
	}
	sizes := stressor.ShardSizes(cfg.Scenarios, cfg.Dedup, cfg.Shards)
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	for i := 0; i < cfg.Shards; i++ {
		s := &shardState{
			state:   "pending",
			entries: map[int]journal.Entry{},
			owned:   sizes[i],
		}
		c.total += s.owned
		// A journal a previous coordinator left here is adopted (any torn
		// tail trimmed), so the campaign resumes from its last flush.
		header := stressor.Shard{Index: i, Count: cfg.Shards}.JournalHeader(cfg.Campaign, len(cfg.Scenarios), c.universe)
		j, w, err := journal.Open(c.journalPath(i), header)
		if err != nil {
			return nil, fmt.Errorf("fabric: opening shard %d journal: %w", i, err)
		}
		s.w = w
		if j != nil {
			for _, e := range j.Entries {
				if _, ok := s.entries[e.Index]; !ok {
					s.entries[e.Index] = e
					s.order = append(s.order, e.Index)
				}
			}
			if len(s.entries) >= s.owned {
				s.state, s.w = "done", nil
				if err := w.Close(); err != nil {
					return nil, fmt.Errorf("fabric: closing shard %d journal: %w", i, err)
				}
			}
		}
		c.shards = append(c.shards, s)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.allDoneLocked() {
		c.finalizeLocked()
	}
	return c, nil
}

func (c *Coordinator) journalPath(i int) string {
	return filepath.Join(c.cfg.DataDir, fmt.Sprintf("shard-%d.journal", i))
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /workers", c.handleRegister)
	mux.HandleFunc("POST /leases", c.handleLease)
	mux.HandleFunc("POST /leases/{shard}/flush", c.handleFlush)
	mux.HandleFunc("GET /status", c.handleStatus)
	mux.HandleFunc("GET /result", c.handleResult)
	mux.HandleFunc("GET /events", c.handleEvents)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorDoc{Error: fmt.Sprintf(format, args...)})
}

// maxBody bounds a request body; a worker keeps its flushes well below
// it (flushBytes).
const maxBody = 1 << 22

// readBytes reads a request body of at most maxBody bytes.
func readBytes(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, "body too large or unreadable: %v", err)
	}
	return data, err == nil
}

// readBody decodes a small JSON request body strictly.
func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	data, ok := readBytes(w, r)
	if !ok {
		return false
	}
	if err := json.Unmarshal(data, v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (c *Coordinator) logInfo(msg string, args ...any) {
	if c.cfg.Log != nil {
		c.cfg.Log.Info(msg, args...)
	}
}

// broadcastLocked wakes every /events streamer.
func (c *Coordinator) broadcastLocked() {
	for _, ch := range c.waiters {
		close(ch)
	}
	c.waiters = nil
}

// Done returns a channel closed when the campaign has finalized (all
// shards complete and the merge attempted — check Result for the
// outcome). It closes even when the merge fails.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Dismissed returns a channel closed once the campaign has finalized
// and every worker the coordinator knows of has been answered with
// campaign-done — on a lease request or on the flush that completed the
// campaign. A coordinator that stops serving before then leaves a
// registered worker to find the port closed, which it cannot tell from
// a coordinator that died. A worker that crashed never asks again:
// callers bound the wait by the lease TTL, after which a silent worker
// counts as dead anyway.
func (c *Coordinator) Dismissed() <-chan struct{} { return c.dismissed }

// dismissLocked records that worker is being told the campaign is done
// (empty: nobody new) and closes dismissed once nobody is left to tell.
func (c *Coordinator) dismissLocked(worker string) {
	if !c.finalized {
		return
	}
	if worker != "" {
		c.workers[worker] = false
	}
	for _, waiting := range c.workers {
		if waiting {
			return
		}
	}
	select {
	case <-c.dismissed:
	default:
		close(c.dismissed)
	}
}

// sweepLocked expires dead leases: a shard whose deadline has passed
// without a flush returns to the pool, entries intact — the next lease
// resumes it from the last flushed entry.
func (c *Coordinator) sweepLocked(now time.Time) {
	for i, s := range c.shards {
		if s.state == "leased" && now.After(s.deadline) {
			c.logInfo("lease expired", "shard", i, "worker", s.worker, "recorded", len(s.entries))
			s.state = "pending"
			s.worker = ""
		}
	}
}

// allDoneLocked reports that every shard is done and its journal synced.
func (c *Coordinator) allDoneLocked() bool {
	for _, s := range c.shards {
		if s.w != nil {
			return false
		}
	}
	return true
}

// finalizeLocked re-reads the shard journals — each closed and synced
// when its shard completed — from disk and merges: the merged Result is
// what the unsharded sequential run would have produced, byte for byte.
func (c *Coordinator) finalizeLocked() {
	if c.finalized {
		return
	}
	c.finalized = true
	defer close(c.done)
	defer c.dismissLocked("")
	defer c.broadcastLocked()
	if c.mergeErr != nil { // a shard journal failed to sync
		return
	}
	js := make([]*journal.Journal, 0, len(c.shards))
	for i := range c.shards {
		j, err := journal.Read(c.journalPath(i))
		if err != nil {
			c.mergeErr = err
			return
		}
		js = append(js, j)
	}
	spec := stressor.MergeSpec{Dedup: c.cfg.Dedup, StopOnFirst: c.cfg.StopOnFirst}
	c.result, c.mergeErr = stressor.MergeHashed(spec, c.cfg.Scenarios, c.universe, js)
	if c.mergeErr == nil {
		c.logInfo("campaign merged", "campaign", c.cfg.Campaign, "outcomes", len(c.result.Outcomes))
	}
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !readBody(w, r, &req) {
		return
	}
	if req.Worker == "" {
		writeErr(w, http.StatusBadRequest, "worker name required")
		return
	}
	c.mu.Lock()
	c.workers[req.Worker] = true
	c.mu.Unlock()
	c.logInfo("worker registered", "worker", req.Worker)
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readBody(w, r, &req) {
		return
	}
	if req.Worker == "" {
		writeErr(w, http.StatusBadRequest, "worker name required")
		return
	}
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[req.Worker] = true
	c.sweepLocked(now)

	grant := func(i int, s *shardState, how string) {
		s.state = "leased"
		s.worker = req.Worker
		s.attempt++
		s.deadline = now.Add(c.cfg.LeaseTTL)
		s.progress = now
		c.logInfo("lease "+how, "shard", i, "worker", req.Worker, "attempt", s.attempt, "resume", len(s.entries))
		entries := make([]journal.Entry, 0, len(s.order))
		for _, idx := range s.order {
			entries = append(entries, s.entries[idx])
		}
		writeJSON(w, http.StatusOK, Lease{
			Status: StatusGranted, Campaign: c.cfg.Campaign,
			Shard: i, Shards: c.cfg.Shards, Attempt: s.attempt,
			Total: len(c.cfg.Scenarios), Universe: c.universe,
			Dedup: c.cfg.Dedup, StopOnFirst: c.cfg.StopOnFirst,
			TTLMillis: c.cfg.LeaseTTL.Milliseconds(),
			Spec:      c.cfg.Spec, Entries: entries,
		})
	}
	for i, s := range c.shards {
		if s.state == "pending" {
			grant(i, s, "granted")
			return
		}
	}
	// Nothing pending: steal from a holder that is heartbeating but has
	// recorded nothing new for StealAfter. The superseded attempt keeps
	// running until its next flush is answered 409 — its entries are
	// deterministic duplicates of the thief's, folded on arrival.
	for i, s := range c.shards {
		if s.state == "leased" && s.worker != req.Worker && now.Sub(s.progress) >= c.cfg.StealAfter {
			c.logInfo("lease stolen", "shard", i, "from", s.worker, "by", req.Worker)
			grant(i, s, "stolen")
			return
		}
	}
	if c.allDoneLocked() {
		c.dismissLocked(req.Worker)
		writeJSON(w, http.StatusOK, Lease{Status: StatusDone})
		return
	}
	writeJSON(w, http.StatusOK, Lease{Status: StatusWait})
}

// handleFlush serves POST /leases/{shard}/flush?worker=W&attempt=N[&done=1]:
// a heartbeat whose body is zero or more newly completed entries as
// journal entry frames (journal.AppendEntryFrame); done marks the shard
// finished. Nothing is recorded from a body that does not decode whole.
func (c *Coordinator) handleFlush(w http.ResponseWriter, r *http.Request) {
	shard, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || shard < 0 || shard >= c.cfg.Shards {
		writeErr(w, http.StatusBadRequest, "bad shard %q", r.PathValue("shard"))
		return
	}
	q := r.URL.Query()
	worker, done := q.Get("worker"), q.Get("done") == "1"
	attempt, err := strconv.Atoi(q.Get("attempt"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad attempt %q", q.Get("attempt"))
		return
	}
	body, ok := readBytes(w, r)
	if !ok {
		return
	}
	entries, err := journal.DecodeEntryFrames(nil, body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad flush body: %v", err)
		return
	}
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.shards[shard]
	if s.worker != worker || s.attempt != attempt || s.state == "pending" {
		// An expired or superseded lease: the holder must stop. Its
		// already-flushed entries stay — they are the resume prefix of
		// whoever holds the lease now.
		writeErr(w, http.StatusConflict, "lease revoked (shard %d held by %q attempt %d)", shard, s.worker, s.attempt)
		return
	}
	if s.state == "leased" {
		s.deadline = now.Add(c.cfg.LeaseTTL)
	}
	grew := false
	for _, e := range entries {
		if e.Index < 0 || e.Index >= len(c.cfg.Scenarios) {
			writeErr(w, http.StatusBadRequest, "entry index %d out of range", e.Index)
			return
		}
		if c.cfg.Scenarios[e.Index].ID != e.ID {
			writeErr(w, http.StatusBadRequest, "entry %d is scenario %q, universe has %q", e.Index, e.ID, c.cfg.Scenarios[e.Index].ID)
			return
		}
		if prev, ok := s.entries[e.Index]; ok {
			if prev != e {
				// Two attempts disagreeing about one scenario means the
				// prototype is nondeterministic — the one condition the
				// whole fabric is built never to paper over.
				writeErr(w, http.StatusConflict, "entry %d recorded twice with different outcomes (%+v vs %+v)", e.Index, prev, e)
				return
			}
			continue
		}
		if s.state == "done" {
			// The shard's journal is sealed; only repeats of what it holds
			// (a final flush delivered twice) are answered.
			writeErr(w, http.StatusConflict, "entry %d arrived after shard %d completed", e.Index, shard)
			return
		}
		if err := s.w.Append(e); err != nil {
			writeErr(w, http.StatusInternalServerError, "journal append: %v", err)
			return
		}
		s.entries[e.Index] = e
		s.order = append(s.order, e.Index)
		grew = true
	}
	if grew {
		s.progress = now
	}
	if done && s.state != "done" {
		s.state = "done"
		c.logInfo("shard done", "shard", shard, "worker", worker, "recorded", len(s.entries))
		// Close and sync this shard's journal now, with mu released: the
		// fsync is paid per shard as shards finish, not for all of them
		// under the lock inside the campaign's last flush.
		jw := s.w
		c.mu.Unlock()
		err := jw.Close()
		c.mu.Lock()
		s.w = nil
		if err != nil && c.mergeErr == nil {
			c.mergeErr = fmt.Errorf("fabric: closing shard %d journal: %w", shard, err)
		}
		if c.allDoneLocked() {
			c.finalizeLocked()
		}
	}
	if grew || done {
		c.broadcastLocked()
	}
	c.dismissLocked(worker)
	writeJSON(w, http.StatusOK, FlushResponse{OK: true, Recorded: len(s.entries), CampaignDone: c.finalized})
}

// statusLocked snapshots progress for /status and /events.
func (c *Coordinator) statusLocked() StatusDoc {
	doc := StatusDoc{Campaign: c.cfg.Campaign, Total: c.total, Done: c.finalized}
	for i, s := range c.shards {
		doc.Shards = append(doc.Shards, ShardStatus{
			Shard: i, State: s.state, Worker: s.worker, Attempt: s.attempt,
			Recorded: len(s.entries), Owned: s.owned,
		})
		doc.Completed += len(s.entries)
	}
	for name := range c.workers {
		doc.Workers = append(doc.Workers, name)
	}
	sort.Strings(doc.Workers)
	if c.mergeErr != nil {
		doc.MergeError = c.mergeErr.Error()
	}
	return doc
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.sweepLocked(c.cfg.Now())
	doc := c.statusLocked()
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, doc)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	res, err, done := c.result, c.mergeErr, c.finalized
	c.mu.Unlock()
	switch {
	case !done:
		writeErr(w, http.StatusNotFound, "campaign still running")
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "merge failed: %v", err)
	case r.URL.Query().Get("format") == "text" && c.cfg.Text != nil:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, c.cfg.Text(res))
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"campaign": res.Name,
			"tally":    res.Tally.String(),
			"outcomes": len(res.Outcomes),
			"dedup":    res.DedupSavedRuns,
		})
	}
}

// handleEvents streams NDJSON progress: one line per state change,
// then a final line once the campaign merges (or fails to).
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		c.mu.Lock()
		doc := c.statusLocked()
		var wait chan struct{}
		if !c.finalized {
			wait = make(chan struct{})
			c.waiters = append(c.waiters, wait)
		}
		res, mergeErr := c.result, c.mergeErr
		c.mu.Unlock()

		ev := Event{Type: "progress", Completed: doc.Completed, Total: doc.Total}
		for _, s := range doc.Shards {
			if s.State == "done" {
				ev.ShardsDone++
			}
		}
		if doc.Done {
			ev.Final = true
			if mergeErr != nil {
				ev.Type, ev.Error = "error", mergeErr.Error()
			} else {
				ev.Type, ev.Tally = "done", res.Tally.String()
			}
		}
		if err := enc.Encode(ev); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if ev.Final {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

// Result returns the merged campaign result once every shard is done
// (nil, false while running; the error reports a failed merge).
func (c *Coordinator) Result() (*stressor.Result, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.finalized {
		return nil, false, nil
	}
	return c.result, true, c.mergeErr
}

// Close releases the shard journal writers (no-op after finalize).
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finalized || c.closed {
		return nil
	}
	c.closed = true
	var first error
	for _, s := range c.shards {
		if s.state == "done" {
			continue // closed, or being closed, by the flush that completed it
		}
		if err := s.w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
