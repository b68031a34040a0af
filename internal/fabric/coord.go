package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
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
	// coordinator's side of the determinism contract, which its shard
	// set checks every entry against and the final merge reads.
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
	// w appends to the shard's journal until the shard is done, and every
	// flush request writes what it recorded to the file under mu; the
	// flush that completes the shard closes w — the fsync — outside mu,
	// then clears it.
	w *journal.Writer
}

// Coordinator runs the lease/flush/merge protocol for one campaign.
type Coordinator struct {
	cfg      CoordConfig
	universe string

	done      chan struct{} // closed at finalization
	dismissed chan struct{} // closed once every worker has also heard of it

	mu     sync.Mutex
	shards []*shardState
	set    *stressor.ShardSet // every entry recorded, campaign-wide
	// workers holds every worker that registered or asked for a lease;
	// the value says it has not been told the campaign is done yet.
	workers   map[string]bool
	closed    bool
	finalized bool
	result    *stressor.Result
	mergeErr  error
	waiters   []chan struct{}
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
		set:       stressor.NewShardSet(cfg.Campaign, cfg.Scenarios, cfg.Dedup, cfg.Shards),
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	for i := 0; i < cfg.Shards; i++ {
		// A journal left here is adopted (any torn tail trimmed) through
		// the shard set: the campaign resumes from its last flush, or does
		// not start from a journal Merge would refuse.
		header := stressor.Shard{Index: i, Count: cfg.Shards}.JournalHeader(cfg.Campaign, len(cfg.Scenarios), c.universe)
		j, w, err := journal.Open(c.journalPath(i), header)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("fabric: opening shard %d journal: %w", i, err)
		}
		s := &shardState{state: "pending", w: w}
		c.shards = append(c.shards, s)
		if j == nil {
			continue
		}
		if _, err := c.set.Add(i, j.Entries, nil); err != nil {
			c.Close()
			return nil, fmt.Errorf("fabric: adopting shard %d journal: %w", i, err)
		}
		if c.set.Recorded(i) >= c.set.Owned(i) {
			s.state, s.w = "done", nil
			if err := w.Close(); err != nil {
				c.Close()
				return nil, fmt.Errorf("fabric: closing shard %d journal: %w", i, err)
			}
		}
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
	data, err := readAll(http.MaxBytesReader(w, r.Body, maxBody), r.ContentLength, maxBody)
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, "body too large or unreadable: %v", err)
	}
	return data, err == nil
}

// readAll is io.ReadAll into a buffer sized up front for a body that
// says it is size bytes long (a Content-Length; -1 when it says nothing),
// so that a body read whole is never copied to grow. A size past limit,
// which r refuses to deliver anyway, reserves nothing.
func readAll(r io.Reader, size, limit int64) ([]byte, error) {
	reserve := int64(512)
	if size >= 0 && size <= limit {
		reserve = size + 1 // room to read EOF
	}
	b := make([]byte, 0, reserve)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// readWorker reads a RegisterRequest or LeaseRequest body (one shape)
// strictly — one JSON value, no field the request lacks, nothing after
// it — and returns the worker it names.
func readWorker(w http.ResponseWriter, r *http.Request) (string, bool) {
	data, ok := readBytes(w, r)
	if !ok {
		return "", false
	}
	var req LeaseRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil && len(bytes.TrimSpace(data[dec.InputOffset():])) > 0 {
		err = errors.New("trailing data after the JSON value")
	}
	switch {
	case err != nil:
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
	case req.Worker == "":
		writeErr(w, http.StatusBadRequest, "worker name required")
	default:
		return req.Worker, true
	}
	return "", false
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
			c.logInfo("lease expired", "shard", i, "worker", s.worker, "recorded", c.set.Recorded(i))
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

// finalizeLocked assembles the result from the shard set — every entry
// the journals hold, each checked as it arrived — after reading every
// shard journal, each closed and synced when its shard completed, back
// from disk to check that the file still holds what the set recorded:
// every frame whole, the shard's header, as many entries as the shard
// recorded. The merged Result is what the unsharded sequential run would
// have produced, byte for byte.
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
	for i := range c.shards {
		if err := c.verifyJournal(i); err != nil {
			c.mergeErr = err
			return
		}
	}
	c.result, c.mergeErr = c.set.Result(c.cfg.StopOnFirst)
	if c.mergeErr == nil {
		c.logInfo("campaign merged", "campaign", c.cfg.Campaign, "outcomes", len(c.result.Outcomes))
	}
}

// verifyJournal checks shard i's journal on disk against what the shard
// set recorded for it, without decoding an entry (journal.Verify).
func (c *Coordinator) verifyJournal(i int) error {
	h, n, err := journal.Verify(c.journalPath(i))
	if err == nil {
		err = h.Match(stressor.Shard{Index: i, Count: c.cfg.Shards}.JournalHeader(c.cfg.Campaign, len(c.cfg.Scenarios), c.universe))
	}
	if err == nil && n != c.set.Recorded(i) {
		err = fmt.Errorf("%d entries on disk, %d recorded", n, c.set.Recorded(i))
	}
	if err != nil {
		return fmt.Errorf("fabric: shard %d journal: %w", i, err)
	}
	return nil
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	worker, ok := readWorker(w, r)
	if !ok {
		return
	}
	c.mu.Lock()
	c.workers[worker] = true
	c.mu.Unlock()
	c.logInfo("worker registered", "worker", worker)
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	worker, ok := readWorker(w, r)
	if !ok {
		return
	}
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[worker] = true
	c.sweepLocked(now)

	// grant hands shard i out with its journal as mu leaves it on disk.
	grant := func(i int, s *shardState, how string) {
		data, err := os.ReadFile(c.journalPath(i))
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "reading shard %d journal: %v", i, err)
			return
		}
		s.state = "leased"
		s.worker = worker
		s.attempt++
		s.deadline = now.Add(c.cfg.LeaseTTL)
		s.progress = now
		c.logInfo("lease "+how, "shard", i, "worker", worker, "attempt", s.attempt, "resume", c.set.Recorded(i))
		writeJSON(w, http.StatusOK, Lease{
			Status: StatusGranted, Attempt: s.attempt,
			Dedup: c.cfg.Dedup, StopOnFirst: c.cfg.StopOnFirst,
			TTLMillis: c.cfg.LeaseTTL.Milliseconds(),
			Spec:      c.cfg.Spec, Journal: data,
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
		if s.state == "leased" && s.worker != worker && now.Sub(s.progress) >= c.cfg.StealAfter {
			c.logInfo("lease stolen", "shard", i, "from", s.worker, "by", worker)
			grant(i, s, "stolen")
			return
		}
	}
	if c.allDoneLocked() {
		c.dismissLocked(worker)
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
	// A refused flush records, appends and extends nothing: a malformed
	// entry is a 400; a conflicting duplicate (a nondeterministic
	// prototype), a new entry for a sealed shard or a done flush that
	// leaves the shard short of its runs a 409. A worker takes any 409
	// as its lease lost and stops, so the shard waits for the lease to
	// expire and be granted again.
	code := http.StatusBadRequest
	keep := func(e journal.Entry) error {
		if s.state == "done" {
			code = http.StatusConflict
			return fmt.Errorf("entry %d arrived after shard %d completed", e.Index, shard)
		}
		if err := s.w.Append(e); err != nil {
			code = http.StatusInternalServerError
			return fmt.Errorf("journal append: %w", err)
		}
		return nil
	}
	var n int
	if done && s.state != "done" {
		// A shard is done once it holds every run it owns, as at restart,
		// or under StopOnFirst every run it owns up to a failure.
		n, err = c.set.AddLast(shard, entries, c.cfg.StopOnFirst, keep)
	} else {
		n, err = c.set.Add(shard, entries, keep)
	}
	if s.state != "done" {
		// grant hands out the journal as it stands on disk, so what this
		// request recorded is written — one write — before it is
		// answered; after a failed write every request is a 500.
		if ferr := s.w.Flush(); ferr != nil && err == nil {
			code, err = http.StatusInternalServerError, fmt.Errorf("journal append: %w", ferr)
		}
	}
	if err != nil {
		if errors.Is(err, stressor.ErrConflict) || errors.Is(err, stressor.ErrIncomplete) {
			code = http.StatusConflict
		}
		writeErr(w, code, "%v", err)
		return
	}
	if s.state == "leased" {
		s.deadline = now.Add(c.cfg.LeaseTTL)
	}
	grew := n > 0
	if grew {
		s.progress = now
	}
	if done && s.state != "done" {
		s.state = "done"
		c.logInfo("shard done", "shard", shard, "worker", worker, "recorded", c.set.Recorded(shard))
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
	writeJSON(w, http.StatusOK, FlushResponse{OK: true, Recorded: c.set.Recorded(shard), CampaignDone: c.finalized})
}

// statusLocked snapshots progress for /status and /events.
func (c *Coordinator) statusLocked() StatusDoc {
	doc := StatusDoc{Campaign: c.cfg.Campaign, Done: c.finalized}
	for i, s := range c.shards {
		doc.Shards = append(doc.Shards, ShardStatus{
			Shard: i, State: s.state, Worker: s.worker, Attempt: s.attempt,
			Recorded: c.set.Recorded(i), Owned: c.set.Owned(i),
		})
		doc.Completed += c.set.Recorded(i)
		doc.Total += c.set.Owned(i)
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
