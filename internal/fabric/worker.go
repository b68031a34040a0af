package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/stressor"
)

// Resolved is a materialized lease: the scenario universe the opaque
// spec describes, and a campaign template carrying everything
// prototype-shaped — RunFunc, inner worker pool, checkpoint knobs.
// The fabric worker overwrites the identity fields (Name, Shard,
// Dedup, StopOnFirst, Journal, Resume, Halt) from the lease.
type Resolved struct {
	Scenarios []fault.Scenario
	Campaign  *stressor.Campaign
}

// Resolver turns a coordinator's opaque spec into runnable form. A
// worker calls it once per distinct spec — successive leases carrying
// the same spec bytes share one Resolved, whose Campaign is copied per
// lease and whose Scenarios are only read — so implementations need
// cache only what should outlive a change of spec (kernels, slot pools).
type Resolver func(spec json.RawMessage) (*Resolved, error)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Name identifies this worker to the coordinator.
	Name string
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// Resolve materializes lease specs.
	Resolve Resolver
	// Heartbeat is the flush cadence while holding a lease. Default
	// (and maximum) is a third of the lease TTL.
	Heartbeat time.Duration
	// Poll is the retry interval when no lease is available. Defaults
	// to Heartbeat.
	Poll time.Duration
	// Client is the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Log receives worker events.
	Log *slog.Logger
}

// Worker leases shards from a coordinator and executes them.
type Worker struct {
	cfg    WorkerConfig
	killed atomic.Bool

	// The last resolved spec, its universe and that universe's hash, so
	// resolving and hashing cost once per distinct spec; every lease is
	// still checked against them. Touched only by Run's goroutine.
	spec     []byte
	resolved *Resolved
	universe string

	frames []byte // flush encode buffer; flushes never overlap

	mu  sync.Mutex
	buf []journal.Entry // completed entries awaiting flush
	// spare is the backing of the entries the last flush sent, which buf
	// takes over at the next one; nil while a requeue holds it in buf.
	spare []journal.Entry
}

// NewWorker validates cfg.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("fabric: worker needs a name")
	}
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("fabric: worker needs a coordinator URL")
	}
	if cfg.Resolve == nil {
		return nil, fmt.Errorf("fabric: worker needs a resolver")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	if cfg.Poll <= 0 {
		cfg.Poll = cfg.Heartbeat
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	return &Worker{cfg: cfg}, nil
}

// Kill simulates a SIGKILL for chaos tests: the worker halts its
// current campaign, stops heartbeating and never flushes again — from
// the coordinator's side it simply goes silent mid-lease, exactly like
// a dead process, and the lease expires and moves on.
func (w *Worker) Kill() { w.killed.Store(true) }

func (w *Worker) logInfo(msg string, args ...any) {
	if w.cfg.Log != nil {
		w.cfg.Log.Info(msg, append([]any{"worker", w.cfg.Name}, args...)...)
	}
}

// maxReply bounds a coordinator response; a lease reply grows with the
// spec and with the shard's journal.
const maxReply = 1 << 28

// flushBytes is where a flush request stops taking entries, well under
// the coordinator's maxBody however many are buffered.
const flushBytes = 1 << 20

// postJSON is post with a JSON-encoded request body.
func (w *Worker) postJSON(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	return w.post(ctx, path, "application/json", body, out)
}

// post sends one request and decodes the JSON response into out (when
// non-nil). It returns the HTTP status and the response error body, if
// any.
func (w *Worker) post(ctx context.Context, path, contentType string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := readAll(io.LimitReader(resp.Body, maxReply+1), resp.ContentLength, maxReply)
	if err != nil {
		return resp.StatusCode, err
	}
	if len(data) > maxReply {
		return resp.StatusCode, fmt.Errorf("fabric: %s: response exceeds %d bytes", path, maxReply)
	}
	if resp.StatusCode/100 != 2 {
		var ed errorDoc
		if json.Unmarshal(data, &ed) == nil && ed.Error != "" {
			return resp.StatusCode, fmt.Errorf("fabric: %s: %s", path, ed.Error)
		}
		return resp.StatusCode, fmt.Errorf("fabric: %s: HTTP %d", path, resp.StatusCode)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("fabric: %s: bad response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// Run registers the worker and processes leases until the campaign
// completes, the context is cancelled, or the worker is killed.
func (w *Worker) Run(ctx context.Context) error {
	if _, err := w.postJSON(ctx, "/workers", RegisterRequest{Worker: w.cfg.Name}, nil); err != nil {
		return err
	}
	for {
		if w.killed.Load() {
			return nil
		}
		var lease Lease
		if code, err := w.postJSON(ctx, "/leases", LeaseRequest{Worker: w.cfg.Name}, &lease); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if code == 0 {
				// Transport failure against a coordinator we successfully
				// registered with: it has gone away — typically a -oneshot
				// coordinator that merged and exited while we were polling.
				// There is nothing left to work on.
				w.logInfo("coordinator gone", "err", err.Error())
				return nil
			}
			return err
		}
		switch lease.Status {
		case StatusDone:
			w.logInfo("campaign done")
			return nil
		case StatusWait:
			select {
			case <-time.After(w.cfg.Poll):
			case <-ctx.Done():
				return ctx.Err()
			}
		case StatusGranted:
			campaignDone, err := w.runLease(ctx, lease)
			if err != nil {
				return err
			}
			if campaignDone {
				// Our final flush completed the whole campaign; skip the
				// next poll — a -oneshot coordinator exits at this point.
				w.logInfo("campaign done")
				return nil
			}
		default:
			return fmt.Errorf("fabric: unknown lease status %q", lease.Status)
		}
	}
}

// runLease executes one granted shard through the campaign engine,
// streaming completed entries back on the heartbeat cadence. It
// reports whether its final flush completed the whole campaign.
func (w *Worker) runLease(ctx context.Context, lease Lease) (bool, error) {
	if w.resolved == nil || !bytes.Equal(lease.Spec, w.spec) {
		resolved, err := w.cfg.Resolve(lease.Spec)
		if err != nil {
			return false, fmt.Errorf("fabric: resolving lease spec: %w", err)
		}
		w.spec = append(w.spec[:0], lease.Spec...)
		w.resolved, w.universe = resolved, stressor.UniverseHash(resolved.Scenarios)
	}
	resolved := w.resolved
	j, err := journal.DecodeBytes(lease.Journal)
	if err != nil {
		return false, fmt.Errorf("fabric: lease journal: %w", err)
	}
	h := j.Header
	if len(resolved.Scenarios) != h.Total {
		return false, fmt.Errorf("fabric: resolved %d scenarios, lease says %d", len(resolved.Scenarios), h.Total)
	}
	if w.universe != h.Universe {
		// The worker would run a different universe than the coordinator
		// merges: a version or configuration skew that must stop the
		// worker, not poison the campaign.
		return false, fmt.Errorf("fabric: resolved universe %s does not match lease universe %s", w.universe, h.Universe)
	}
	w.logInfo("lease granted", "shard", h.Shard, "attempt", lease.Attempt, "resume", len(j.Entries))

	// Drop anything a previous revoked lease left unflushed: those
	// entries belong to a shard someone else owns now.
	w.mu.Lock()
	w.buf = w.buf[:0]
	w.mu.Unlock()

	// revoked stops the lease: superseded (409) or, with rejected set, a
	// flush the coordinator refused outright.
	var revoked, campaignDone atomic.Bool
	var rejected error
	flushPath := fmt.Sprintf("/leases/%d/flush?worker=%s&attempt=%d", h.Shard, url.QueryEscape(w.cfg.Name), lease.Attempt)
	// flush sends what is buffered as entry frames, in as many requests
	// as flushBytes makes of it; done rides on the last.
	flush := func(done bool) {
		w.mu.Lock()
		entries := w.buf
		w.buf = w.spare
		w.spare = entries[:0]
		w.mu.Unlock()
		for {
			if w.killed.Load() || revoked.Load() {
				return
			}
			n := 0
			for w.frames = w.frames[:0]; n < len(entries) && len(w.frames) < flushBytes; n++ {
				w.frames = journal.AppendEntryFrame(w.frames, entries[n])
			}
			path := flushPath
			if done && n == len(entries) {
				path += "&done=1"
			}
			var fr FlushResponse
			code, err := w.post(ctx, path, "application/octet-stream", w.frames, &fr)
			if err != nil {
				// The transport may still be reading a body it failed to deliver.
				w.frames = nil
			}
			switch {
			case err == nil:
				if fr.CampaignDone {
					campaignDone.Store(true)
				}
				if entries = entries[n:]; len(entries) > 0 {
					continue
				}
			case code == http.StatusConflict:
				// Superseded: someone stole the lease (or it expired and was
				// regranted). Halt; the thief re-runs whatever we did not get
				// flushed in time.
				w.logInfo("lease revoked", "shard", h.Shard, "attempt", lease.Attempt)
				revoked.Store(true)
			case code/100 == 4:
				// The coordinator refuses these bytes and would refuse them
				// again: sending them once more only wedges the lease.
				rejected = err
				revoked.Store(true)
			default:
				// Transient failure: requeue and retry next heartbeat. The
				// lease survives as long as one flush lands within the TTL.
				w.mu.Lock()
				w.buf, w.spare = append(entries, w.buf...), nil
				w.mu.Unlock()
				w.logInfo("flush failed", "shard", h.Shard, "err", err.Error())
			}
			return
		}
	}

	c := *resolved.Campaign
	c.Name = h.Campaign
	c.Dedup = lease.Dedup
	c.StopOnFirst = lease.StopOnFirst
	c.Shard = stressor.Shard{Index: h.Shard, Count: h.Shards}
	c.Journal = &bufSink{w: w}
	if len(j.Entries) > 0 {
		// Only a resume hashes the universe (Campaign.JournalHeader).
		c.Resume = j
	}
	c.Halt = func(int) bool { return w.killed.Load() || revoked.Load() }

	hb := w.cfg.Heartbeat
	if ttl := time.Duration(lease.TTLMillis) * time.Millisecond; ttl > 0 && hb > ttl/3 {
		hb = ttl / 3
	}
	stop := make(chan struct{})
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				flush(false)
			case <-stop:
				return
			}
		}
	}()

	_, err = c.Execute(resolved.Scenarios)
	close(stop)
	hbDone.Wait()
	if err == nil && !w.killed.Load() && !revoked.Load() {
		flush(true)
	}
	switch {
	case err != nil:
		return false, fmt.Errorf("fabric: shard %d: %w", h.Shard, err)
	case rejected != nil:
		return false, fmt.Errorf("fabric: shard %d: flush rejected: %w", h.Shard, rejected)
	case w.killed.Load() || revoked.Load():
		// Killed: go silent. Revoked: the thief owns the shard now.
		return false, nil
	}
	w.logInfo("lease done", "shard", h.Shard, "attempt", lease.Attempt)
	return campaignDone.Load(), nil
}

// bufSink is the engine's JournalSink: completed entries accumulate in
// the worker's buffer until the next heartbeat flush.
type bufSink struct{ w *Worker }

func (s *bufSink) Append(e journal.Entry) error {
	s.w.mu.Lock()
	s.w.buf = append(s.w.buf, e)
	s.w.mu.Unlock()
	return nil
}
