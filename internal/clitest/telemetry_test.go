package clitest

import (
	"encoding/json"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"
)

// telemetrySpec is a fast inline campaign for the telemetry E2E tests.
const telemetrySpec = `{"campaign":"tele","universe":{"kind":"inline","horizon":"2ms","scenarios":[` +
	`{"id":"a","faults":"open @caps.accel0.harness from 100us"},` +
	`{"id":"b","faults":"omission @caps.can.bus from 200us"}]}}`

// TestDaemonMetricsGolden pins the shape of the GET /metrics
// Prometheus exposition: which families exist, their TYPE lines, and
// the full (deterministic) series set, with wall-clock values
// normalized away. A new daemon metric shows up as a golden diff, not
// silently.
func TestDaemonMetricsGolden(t *testing.T) {
	d := StartDaemon(t, t.TempDir())
	if status, body := Post(t, d.URL+"/runs", telemetrySpec); status != http.StatusAccepted {
		t.Fatalf("POST /runs = %d; body: %s", status, body)
	}
	WaitRunState(t, d.URL, "r000001", "done", 60*time.Second)

	status, doc := Get(t, d.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics = %d", status)
	}
	Golden(t, "daemon_metrics", NormalizeMetrics(doc))
}

// TestDaemonTraceEndpoints drives the run-trace surface end to end:
// a malformed request (trace of an untraced run) is a stable 400, and
// a "trace": true run serves a loadable Chrome trace document after
// completion.
func TestDaemonTraceEndpoints(t *testing.T) {
	d := StartDaemon(t, t.TempDir())

	// r000001: no tracing requested — asking for its trace is a 400
	// whose body is part of the error-surface contract.
	if status, body := Post(t, d.URL+"/runs", telemetrySpec); status != http.StatusAccepted {
		t.Fatalf("POST /runs = %d; body: %s", status, body)
	}
	WaitRunState(t, d.URL, "r000001", "done", 60*time.Second)
	status, body := Get(t, d.URL+"/runs/r000001/trace")
	if status != http.StatusBadRequest {
		t.Fatalf("GET /trace on untraced run = %d, want 400; body: %s", status, body)
	}
	Golden(t, "daemon_err_trace_400", body)

	// r000002: traced run — the downloaded document is valid Chrome
	// trace-event JSON.
	traced := strings.Replace(telemetrySpec, `"campaign":"tele"`, `"campaign":"tele","trace":true`, 1)
	if status, body := Post(t, d.URL+"/runs", traced); status != http.StatusAccepted {
		t.Fatalf("POST traced = %d; body: %s", status, body)
	}
	WaitRunState(t, d.URL, "r000002", "done", 60*time.Second)
	status, body = Get(t, d.URL+"/runs/r000002/trace")
	if status != http.StatusOK {
		t.Fatalf("GET /trace = %d; body: %s", status, body)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 || doc.Unit != "ms" {
		t.Fatalf("trace document: %d events, unit %q", len(doc.TraceEvents), doc.Unit)
	}
}

// TestDaemonSigquitFlightDump is the flight-recorder lifecycle pin:
// SIGQUIT makes the daemon dump its ring to stderr and KEEP SERVING;
// SIGTERM afterwards still shuts it down cleanly.
func TestDaemonSigquitFlightDump(t *testing.T) {
	d := StartDaemon(t, t.TempDir())
	if status, body := Post(t, d.URL+"/runs", telemetrySpec); status != http.StatusAccepted {
		t.Fatalf("POST /runs = %d; body: %s", status, body)
	}
	WaitRunState(t, d.URL, "r000001", "done", 60*time.Second)

	// A run's state reads "done" a moment before the scheduler records
	// run.done in the flight ring, and a dump reaches stderr one line at
	// a time: a single dump can be taken too early or read half-written.
	// Dumps are repeatable — that is the point of the test — so ask again
	// until one holds every mark after its header.
	marks := []string{"campaignd flight dump (SIGQUIT):", "run.submit", "run.start", "run.done"}
	for deadline := time.Now().Add(10 * time.Second); ; {
		d.Signal(syscall.SIGQUIT)
		out, missing := d.WaitStderr(time.Second, marks...)
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no flight dump with %q after 10 s of asking; stderr:\n%s", missing, out)
		}
	}
	// The daemon survived the dump.
	if status, _ := Get(t, d.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("daemon not healthy after SIGQUIT: %d", status)
	}
	d.Signal(syscall.SIGTERM)
	d.WaitExit(15 * time.Second)
}

// TestDaemonPprof smoke-tests the -debug-addr listener: pprof serves
// on its own port, isolated from the API.
func TestDaemonPprof(t *testing.T) {
	d := StartDaemon(t, t.TempDir(), "-debug-addr", "127.0.0.1:0")
	debug := d.DebugURL()
	if debug == "" {
		t.Fatal("daemon announced no debug listener")
	}
	if status, body := Get(t, debug+"/debug/pprof/cmdline"); status != http.StatusOK || !strings.Contains(body, "capsimd") {
		t.Fatalf("pprof cmdline = %d: %q", status, body)
	}
	// The API listener does not serve pprof.
	if status, _ := Get(t, d.URL+"/debug/pprof/cmdline"); status == http.StatusOK {
		t.Fatal("pprof leaked onto the API listener")
	}
}

// TestCapsimLogFormatJSON checks the CLI's structured-log surface:
// -log-format json writes one JSON object per line to stderr with the
// campaign lifecycle events, while stdout (the goldenfiled summary)
// stays untouched; a bogus format is a usage error.
func TestCapsimLogFormatJSON(t *testing.T) {
	args := append(append([]string{}, capsimCampaignArgs...), "-log-format", "json")
	r := Run(t, nil, Binary(t, "capsim"), args...)
	if r.Code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", r.Code, r.Stderr)
	}
	Golden(t, goldenCampaign, r.Stdout)
	var sawStart, sawDone bool
	for _, line := range strings.Split(strings.TrimSpace(r.Stderr), "\n") {
		var rec struct {
			Msg      string `json:"msg"`
			Campaign string `json:"campaign"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("stderr line is not JSON: %q (%v)", line, err)
		}
		if rec.Campaign != "e2e" {
			t.Fatalf("log line without campaign attr: %q", line)
		}
		sawStart = sawStart || rec.Msg == "campaign start"
		sawDone = sawDone || rec.Msg == "campaign done"
	}
	if !sawStart || !sawDone {
		t.Fatalf("lifecycle events missing (start=%v done=%v):\n%s", sawStart, sawDone, r.Stderr)
	}

	if r := Run(t, nil, Binary(t, "capsim"), "-campaign", "-log-format", "yaml"); r.Code != 2 {
		t.Fatalf("bogus -log-format exited %d, want 2; stderr:\n%s", r.Code, r.Stderr)
	}
}
