package clitest

import (
	"net/http"
	"strings"
	"testing"
	"time"
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
