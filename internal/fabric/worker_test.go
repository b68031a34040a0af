package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/caps"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// swapServer serves whichever coordinator is current behind one URL, so
// one long-lived Worker can be run against campaign after campaign.
type swapServer struct {
	*httptest.Server
	t       *testing.T
	handler atomic.Pointer[http.Handler]
}

func newSwapServer(t *testing.T) *swapServer {
	s := &swapServer{t: t}
	s.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*s.handler.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(s.Close)
	return s
}

// campaign puts a fresh coordinator for cfg behind the URL.
func (s *swapServer) campaign(cfg CoordConfig) *Coordinator {
	s.t.Helper()
	cfg.Campaign, cfg.DataDir = "fab", s.t.TempDir()
	c, err := NewCoordinator(cfg)
	if err != nil {
		s.t.Fatal(err)
	}
	s.t.Cleanup(func() { c.Close() })
	h := c.Handler()
	s.handler.Store(&h)
	return c
}

// TestWorkerResolvesOncePerSpec is the resolver contract: a worker
// resolves (and hashes) once per distinct spec, across leases and across
// campaigns, and still holds every lease's Total and Universe against
// what it resolved.
func TestWorkerResolvesOncePerSpec(t *testing.T) {
	run := testRun(map[int]fault.Classification{5: fault.SDC})
	universes := map[string][]fault.Scenario{`{"n":16}`: testScenarios(16), `{"n":24}`: testScenarios(24)}
	var resolves atomic.Int32
	srv := newSwapServer(t)
	w, err := NewWorker(WorkerConfig{
		Name: "w", Coordinator: srv.URL, Heartbeat: chaosHeartbeat, Poll: chaosPoll,
		Resolve: func(spec json.RawMessage) (*Resolved, error) {
			resolves.Add(1)
			return &Resolved{Scenarios: universes[string(spec)], Campaign: &stressor.Campaign{Run: run}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	campaign := func(spec string, scenarios []fault.Scenario, wantResolves int32) {
		t.Helper()
		c := srv.campaign(CoordConfig{Spec: json.RawMessage(spec), Scenarios: scenarios, Shards: 8})
		runWorkers(t, context.Background(), w)
		got, done, err := c.Result()
		if err != nil || !done {
			t.Fatalf("spec %s: done=%v err=%v", spec, done, err)
		}
		if want := sequentialBaseline(t, "fab", scenarios, run, false, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("spec %s: distributed result differs from sequential", spec)
		}
		if n := resolves.Load(); n != wantResolves {
			t.Fatalf("spec %s: %d resolves so far, want %d", spec, n, wantResolves)
		}
	}
	campaign(`{"n":16}`, universes[`{"n":16}`], 1) // eight leases, one resolve
	campaign(`{"n":16}`, universes[`{"n":16}`], 1) // the next campaign of the same spec: none
	campaign(`{"n":24}`, universes[`{"n":24}`], 2) // other spec bytes: resolved again
	campaign(`{"n":16}`, universes[`{"n":16}`], 3) // only the last spec is kept

	// A coordinator whose universe is not what the spec resolves to stops
	// the worker, remembered resolution or not.
	skewed := testScenarios(16)
	skewed[3].Faults[0].Param = 0.25
	for _, tc := range []struct {
		scenarios []fault.Scenario
		want      string
	}{
		{skewed, "does not match lease universe"},
		{testScenarios(15), "resolved 16 scenarios, lease says 15"},
	} {
		srv.campaign(CoordConfig{Spec: json.RawMessage(`{"n":16}`), Scenarios: tc.scenarios, Shards: 2})
		if err := w.Run(context.Background()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("skewed coordinator: worker returned %v, want an error containing %q", err, tc.want)
		}
	}
	if n := resolves.Load(); n != 3 {
		t.Fatalf("%d resolves after the skewed leases, want 3", n)
	}
}

// countFlushes wraps a coordinator handler, counting flush requests and
// the statuses they were answered with.
type countFlushes struct {
	inner    http.Handler
	requests atomic.Int32
	refused  atomic.Int32 // answered 4xx or 5xx
	reject   bool         // answer every flush 400 without the coordinator seeing it
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (c *countFlushes) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasSuffix(r.URL.Path, "/flush") {
		c.inner.ServeHTTP(w, r)
		return
	}
	c.requests.Add(1)
	if c.reject {
		c.refused.Add(1)
		writeErr(w, http.StatusBadRequest, "refused by the test")
		return
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	c.inner.ServeHTTP(sw, r)
	if sw.code >= 400 {
		c.refused.Add(1)
	}
}

// TestLargeFlushIsSplit buffers more between two heartbeats than one
// request body may hold: the worker must deliver it in several requests
// and the shard complete. Sent whole, the flush is refused with 413 on
// every retry until the lease dies, and again under its next holder.
func TestLargeFlushIsSplit(t *testing.T) {
	scenarios := testScenarios(24)
	detail := strings.Repeat("x", 256<<10) // 24 × 256 KiB > maxBody
	run := func(sc fault.Scenario) fault.Outcome {
		return fault.Outcome{Scenario: sc, Class: fault.Masked, Detail: detail}
	}
	c, err := NewCoordinator(CoordConfig{Campaign: "fab", Scenarios: scenarios, Shards: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	counted := &countFlushes{inner: c.Handler()}
	srv := httptest.NewServer(counted)
	defer srv.Close()
	// The default heartbeat outlasts the run: everything rides the final flush.
	w, err := NewWorker(WorkerConfig{Name: "w", Coordinator: srv.URL, Resolve: resolver(scenarios, run), Poll: chaosPoll})
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, context.Background(), w)
	got, done, err := c.Result()
	if err != nil || !done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	if want := sequentialBaseline(t, "fab", scenarios, run, false, false); !reflect.DeepEqual(got, want) {
		t.Fatal("distributed result differs from sequential")
	}
	if n, bad := counted.requests.Load(), counted.refused.Load(); n < 2 || bad != 0 {
		t.Fatalf("%d flush requests, %d refused; want several and none refused", n, bad)
	}
}

// TestLargeLeaseReplyIsRead: a regrant carries every entry already
// recorded for the shard, so its reply grows with the shard; the worker
// reads all of it (it used to stop at 4 MiB and call the rest a bad
// response) and resumes without re-running anything.
func TestLargeLeaseReplyIsRead(t *testing.T) {
	scenarios := testScenarios(24)
	detail := strings.Repeat("x", 256<<10)
	var ran atomic.Int32
	run := func(sc fault.Scenario) fault.Outcome {
		ran.Add(1)
		return fault.Outcome{Scenario: sc, Class: fault.Masked, Detail: detail}
	}
	clock := newFakeClock()
	c, srv := startCoord(t, CoordConfig{Scenarios: scenarios, Shards: 1, LeaseTTL: 10 * time.Second, Now: clock.Now})
	dead := lease(t, srv.URL, "dead")
	for at := 0; at < len(scenarios); at += 8 { // 2 MiB a flush
		req := flushReq{Worker: "dead", Attempt: dead.Attempt}
		for i := at; i < at+8; i++ {
			req.Entries = append(req.Entries, journal.Entry{Index: i, ID: scenarios[i].ID, Class: fault.Masked.String(), Detail: detail})
		}
		if code := flush(t, srv.URL, 0, req); code != http.StatusOK {
			t.Fatalf("flush at %d: HTTP %d", at, code)
		}
	}
	clock.Advance(11 * time.Second)
	w, err := NewWorker(WorkerConfig{Name: "heir", Coordinator: srv.URL, Resolve: resolver(scenarios, run), Poll: chaosPoll})
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, context.Background(), w)
	got, done, err := c.Result()
	if err != nil || !done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("the heir re-ran %d scenarios the lease already held", n)
	}
	if want := sequentialBaseline(t, "fab", scenarios, run, false, false); !reflect.DeepEqual(got, want) {
		t.Fatal("distributed result differs from sequential")
	}
}

// TestRejectedFlushFailsTheLease: a flush answered 4xx other than 409
// would be answered so again; the worker reports it and stops instead
// of re-sending the same bytes every heartbeat.
func TestRejectedFlushFailsTheLease(t *testing.T) {
	scenarios := testScenarios(6)
	c, err := NewCoordinator(CoordConfig{Campaign: "fab", Scenarios: scenarios, Shards: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	counted := &countFlushes{inner: c.Handler(), reject: true}
	srv := httptest.NewServer(counted)
	defer srv.Close()
	w, err := NewWorker(WorkerConfig{Name: "w", Coordinator: srv.URL, Resolve: resolver(scenarios, testRun(nil)), Poll: chaosPoll})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "flush rejected") || !strings.Contains(err.Error(), "refused by the test") {
		t.Fatalf("worker returned %v, want the rejected flush", err)
	}
	if n := counted.requests.Load(); n != 1 {
		t.Fatalf("%d flush requests, want the one that was refused", n)
	}
}

// TestFabricAllocationBudget is the benchmark's allocs_per_scenario for
// fabric-2w-sweep brought into tier 1, beside
// caps.TestCampaignAllocationBudget: a coordinator and two fresh workers
// over loopback HTTP run the permanent CAPS universe at 64 instants
// 250 µs apart — several to an idle window, as the benchmark's are — in
// 8 binary-journaled shards, the resolver rebuilding the scenario list
// from the spec on every call as the benchmark's does. A round reads
// 13.2 a scenario (14.2 under -race): shards cut by injection time answer
// a window's instants from one memo, and a run whose outputs equal
// golden's builds none (an outputs map, a rendered detail and a
// detection list per restore put it at 15.7). It read 21.0 while the coordinator
// finalized by reading its journals back and merging them again (2.6 of
// the difference) and the registry named every descriptor afresh on
// each Universe call (2.5); shard-sized lease slots and wire buffers
// sized from Content-Length save bytes more than allocations (0.1 each).
// Cut round-robin it read 24.5; a resolve or a universe hash per lease,
// or JSON on the flush path, each put it past 60.
func TestFabricAllocationBudget(t *testing.T) {
	runner, err := caps.NewRunner(caps.Protected(), caps.NormalDriving(), sim.MS(80))
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	universe := func() []fault.Scenario {
		var scs []fault.Scenario
		for i := 0; i < 64; i++ {
			at := sim.MS(5) + sim.Time(i)*sim.US(250)
			for _, d := range runner.Universe(at) {
				d.Name += fmt.Sprintf("@%dus", uint64(at/sim.Microsecond))
				scs = append(scs, fault.Single(d))
			}
		}
		return scs
	}
	scenarios := universe()
	resolve := func(json.RawMessage) (*Resolved, error) {
		return &Resolved{Scenarios: universe(), Campaign: &stressor.Campaign{
			Checkpointer: runner,
		}}, nil
	}
	srv := newSwapServer(t)
	dir, rounds := t.TempDir(), 0
	round := func() {
		rounds++
		c, err := NewCoordinator(CoordConfig{
			Campaign: "budget", Scenarios: scenarios, Shards: 8,
			DataDir: filepath.Join(dir, fmt.Sprint(rounds)), LeaseTTL: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		h := c.Handler()
		srv.handler.Store(&h)
		workers := make([]*Worker, 2)
		for i := range workers {
			if workers[i], err = NewWorker(WorkerConfig{
				Name: fmt.Sprintf("w%d", i), Coordinator: srv.URL, Resolve: resolve,
				Heartbeat: 100 * time.Millisecond, Poll: time.Millisecond,
			}); err != nil {
				t.Fatal(err)
			}
		}
		runWorkers(t, context.Background(), workers...)
		if _, done, err := c.Result(); err != nil || !done {
			t.Fatalf("done=%v err=%v", done, err)
		}
	}
	const ceiling = 15.3
	// AllocsPerRun runs round once to warm up before it counts.
	per := testing.AllocsPerRun(3, round) / float64(len(scenarios))
	t.Logf("%.2f allocations per scenario over %d scenarios", per, len(scenarios))
	if per > ceiling {
		t.Errorf("%.2f allocations per scenario, ceiling %.1f", per, ceiling)
	}
}
