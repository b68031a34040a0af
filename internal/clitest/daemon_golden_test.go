package clitest

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/campaignd"
)

// e2eSpec mirrors capsimCampaignArgs knob for knob; the daemon must
// turn it into the byte-identical campaign.
const e2eSpec = `{"campaign":"e2e","universe":{"kind":"caps-single-fault","horizon":"30ms"},"workers":2}`

// TestDaemonResultMatchesCapsimGolden is the acceptance pin of the
// campaign service: submitting a spec over HTTP and asking for the
// text result must produce exactly the bytes the equivalent capsim
// command line prints — both sides assert the same goldenfile.
func TestDaemonResultMatchesCapsimGolden(t *testing.T) {
	d := StartDaemon(t, t.TempDir())
	Golden(t, "capsimd_ready", d.Ready+"\n")

	status, body := Post(t, d.URL+"/runs", e2eSpec)
	if status != http.StatusAccepted {
		t.Fatalf("POST /runs = %d, want 202; body: %s", status, body)
	}
	Golden(t, "daemon_submit", body)

	final := WaitRunState(t, d.URL, "r000001", "done", 60*time.Second)
	Golden(t, "daemon_run_done", final)

	status, text := Get(t, d.URL+"/runs/r000001/result?format=text")
	if status != http.StatusOK {
		t.Fatalf("GET result?format=text = %d; body: %s", status, text)
	}
	Golden(t, goldenCampaign, text)

	status, doc := Get(t, d.URL+"/runs/r000001/result")
	if status != http.StatusOK {
		t.Fatalf("GET result = %d", status)
	}
	Golden(t, "daemon_result_json", doc)

	// The event stream of a finished run is its retained terminal
	// state, exactly one line.
	lines := StreamEvents(t, d.URL, "r000001", 10*time.Second)
	Golden(t, "daemon_events_done", strings.Join(lines, "\n")+"\n")

	// A second submission of the same spec rides the warm runner and
	// must land on the identical text result.
	status, body = Post(t, d.URL+"/runs", e2eSpec)
	if status != http.StatusAccepted {
		t.Fatalf("second POST /runs = %d; body: %s", status, body)
	}
	WaitRunState(t, d.URL, "r000002", "done", 60*time.Second)
	if _, text2 := Get(t, d.URL+"/runs/r000002/result?format=text"); text2 != text {
		t.Errorf("warm-runner rerun diverges from the first run's text result")
	}
}

// TestDaemonRejectsMalformedSpecs pins the error surface: malformed
// or out-of-range specs are structured 400s with stable bodies, and
// unknown runs are 404s — never panics, never empty replies.
func TestDaemonRejectsMalformedSpecs(t *testing.T) {
	d := StartDaemon(t, t.TempDir())
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"daemon_err_badjson", `not json`, http.StatusBadRequest},
		{"daemon_err_unknown_field", `{"wat":1}`, http.StatusBadRequest},
		{"daemon_err_workers", `{"universe":{},"workers":2000}`, http.StatusBadRequest},
		{"daemon_err_kind", `{"universe":{"kind":"exotic"}}`, http.StatusBadRequest},
		{"daemon_err_trailing", `{"universe":{}} {"universe":{}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := Post(t, d.URL+"/runs", tc.body)
			if status != tc.status {
				t.Fatalf("POST %q = %d, want %d; body: %s", tc.body, status, tc.status, body)
			}
			if !strings.Contains(body, `"error"`) {
				t.Fatalf("error body is not structured JSON: %s", body)
			}
			Golden(t, tc.name, body)
		})
	}

	status, body := Get(t, d.URL+"/runs/r000099")
	if status != http.StatusNotFound {
		t.Fatalf("GET unknown run = %d; body: %s", status, body)
	}
	Golden(t, "daemon_err_unknown_run", body)

	// After all that abuse the daemon is still alive and healthy.
	if status, _ := Get(t, d.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz = %d after malformed submissions", status)
	}
}

// TestDaemonAdaptiveMatchesCapsimGolden: an "adaptive": true spec and
// the equivalent capsim -adaptive command line are the same campaign —
// same strategy recipe, same proposal stream, same census lines — so
// the daemon's text result is asserted against the CLI's goldenfile.
func TestDaemonAdaptiveMatchesCapsimGolden(t *testing.T) {
	d := StartDaemon(t, t.TempDir())
	status, body := Post(t, d.URL+"/runs", adaptiveSpec)
	if status != http.StatusAccepted {
		t.Fatalf("POST /runs = %d, want 202; body: %s", status, body)
	}
	WaitRunState(t, d.URL, "r000001", "done", 60*time.Second)
	status, text := Get(t, d.URL+"/runs/r000001/result?format=text")
	if status != http.StatusOK {
		t.Fatalf("GET result?format=text = %d; body: %s", status, text)
	}
	Golden(t, goldenAdaptive, text)
}

// forkWindowSpec is an inline universe that exercises fork windows
// (DESIGN §14) end to end: five permanent faults, each at three instants
// inside one idle window of the CAPS golden run (a frame completes 148 µs
// into the fusion cycle at 5 ms; the bus is then quiet until 6 ms), on the
// activity instant that ends it, and inside the next window.
func forkWindowSpec(workers int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"campaign":"windows","workers":%d,"universe":{"kind":"inline","horizon":"30ms","scenarios":[`, workers)
	n := 0
	for _, f := range []string{
		"open @caps.accel0.harness", "value-offset @caps.accel1.harness param 0.5",
		"corruption @caps.can.bus", "babbling @caps.can.bus", "stuck-at-1 @caps.airbag.threshold",
	} {
		for _, at := range []int{5300, 5500, 5900, 6000, 6100} {
			if n > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"id":"s%02d","faults":"%s from %dus"}`, n, f, at)
			n++
		}
	}
	sb.WriteString(`]}}`)
	return sb.String()
}

// rebuildResultDoc is the result document of the rebuild oracle for the
// spec raw, under run ID "run": the campaign Spec.Build assembles, run in
// this process on a runner that rebuilds the prototype for every scenario
// (ReuseOff, whose sessions rebuild).
func rebuildResultDoc(t *testing.T, raw string) string {
	t.Helper()
	spec, err := campaignd.ParseSpec([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	runner, err := spec.BuildRunner()
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	runner.ReuseOff = true
	c, scenarios, err := spec.Build(runner)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	sum := spec.Summary(len(scenarios), res)
	data, err := json.Marshal(campaignd.BuildResultDoc("run", sum.Scenarios, res, sum))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestDaemonForkWindowsMatchPlainResult: scenarios answered from a tree
// session's window memo leave no mark on the result document. The spec
// run through the daemon — on one worker, whose session answers two of
// every three in-window instants, and on two — yields the bytes of the
// rebuild oracle, which simulates every scenario from time zero.
func TestDaemonForkWindowsMatchPlainResult(t *testing.T) {
	d := StartDaemon(t, t.TempDir())
	for run, workers := range []int{1, 2} {
		id := fmt.Sprintf("r%06d", run+1)
		spec := forkWindowSpec(workers)
		if status, body := Post(t, d.URL+"/runs", spec); status != http.StatusAccepted {
			t.Fatalf("POST /runs = %d; body: %s", status, body)
		}
		WaitRunState(t, d.URL, id, "done", 60*time.Second)
		status, doc := Get(t, d.URL+"/runs/"+id+"/result")
		if status != http.StatusOK {
			t.Fatalf("GET result of %s = %d", id, status)
		}
		// The run id is the one field that tells two runs of a daemon apart.
		got := strings.TrimSpace(strings.Replace(doc, `"id":"`+id+`"`, `"id":"run"`, 1))
		want := rebuildResultDoc(t, spec)
		if !strings.Contains(want, `"scenarios":25`) {
			t.Fatalf("the rebuild oracle's result does not hold the 25 scenarios: %s", want)
		}
		if got != want {
			t.Errorf("workers=%d: the daemon's result differs from the rebuild oracle's\ngot:  %s\nwant: %s", workers, got, want)
		}
	}
	// The memo did answer — the one-worker run's metrics say so, its
	// result cannot: two of the three in-window instants of each fault.
	_, metrics := Get(t, d.URL+"/runs/r000001/metrics")
	if hits := `"campaign.fork_window_hits{campaign=windows}": 10`; !strings.Contains(metrics, hits) {
		t.Errorf("/runs/r000001/metrics does not hold %s: %s", hits, metrics)
	}
}
