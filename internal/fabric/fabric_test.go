package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/stressor"
)

// testScenarios builds n scenarios with distinct fault content (dedup
// would fold identical content).
func testScenarios(n int) []fault.Scenario {
	out := make([]fault.Scenario, n)
	for i := range out {
		out[i] = fault.Single(fault.Descriptor{
			Name: fmt.Sprintf("s%d", i), Model: fault.BitFlip, Target: "m", Bit: uint(i),
		})
	}
	return out
}

// testRun maps scenario si to failures[i] (default Masked), purely.
func testRun(failures map[int]fault.Classification) stressor.RunFunc {
	return func(sc fault.Scenario) fault.Outcome {
		var i int
		fmt.Sscanf(sc.ID, "s%d", &i)
		cls := fault.Masked
		if c, ok := failures[i]; ok {
			cls = c
		}
		return fault.Outcome{Scenario: sc, Class: cls, Detail: "ran " + sc.ID}
	}
}

// fakeClock is a mutex-guarded manual clock for deterministic lease
// expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// startCoord builds a coordinator with the given config, applying test
// defaults, and serves it over httptest.
func startCoord(t *testing.T, cfg CoordConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Campaign == "" {
		cfg.Campaign = "fab"
	}
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { c.Close() })
	return c, srv
}

// postJSON posts v and returns the status code and raw response body.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// granted is a lease as the tests read it: the reply, and the shard and
// the entries its journal holds.
type granted struct {
	Lease
	Shard   int
	Entries []journal.Entry
}

// lease requests a lease for worker and decodes it, journal included.
func lease(t *testing.T, base, worker string) granted {
	t.Helper()
	code, data := postJSON(t, base+"/leases", LeaseRequest{Worker: worker})
	if code != http.StatusOK {
		t.Fatalf("lease: HTTP %d: %s", code, data)
	}
	var g granted
	if err := json.Unmarshal(data, &g.Lease); err != nil {
		t.Fatal(err)
	}
	if g.Status == StatusGranted {
		j, err := journal.DecodeBytes(g.Journal)
		if err != nil {
			t.Fatal(err)
		}
		g.Shard, g.Entries = j.Header.Shard, j.Entries
	}
	return g
}

// flushReq is one flush as a worker would send it.
type flushReq struct {
	Worker  string
	Attempt int
	Entries []journal.Entry
	Done    bool
}

// flushURL spells the flush endpoint for req.
func flushURL(base string, shard int, req flushReq) string {
	u := fmt.Sprintf("%s/leases/%d/flush?worker=%s&attempt=%d", base, shard, url.QueryEscape(req.Worker), req.Attempt)
	if req.Done {
		u += "&done=1"
	}
	return u
}

// flush posts a flush request — the entries as journal frames — and
// returns the status code.
func flush(t *testing.T, base string, shard int, req flushReq) int {
	t.Helper()
	var body []byte
	for _, e := range req.Entries {
		body = journal.AppendEntryFrame(body, e)
	}
	resp, err := http.Post(flushURL(base, shard, req), "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// resolver builds a Resolver returning fresh campaign templates over
// the given scenarios and run function.
func resolver(scenarios []fault.Scenario, run stressor.RunFunc) Resolver {
	return func(json.RawMessage) (*Resolved, error) {
		return &Resolved{
			Scenarios: scenarios,
			Campaign:  &stressor.Campaign{Run: run},
		}, nil
	}
}
