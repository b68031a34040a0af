package clitest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/journal"
)

// bigSpec builds an inline-universe spec large enough (~2-3s of wall
// clock) that a SIGTERM reliably lands mid-campaign. The faults are
// transient, so no two scenarios share a fork window's run: each
// simulates to the horizon.
func bigSpec(n int) string {
	var sb strings.Builder
	sb.WriteString(`{"campaign":"big","universe":{"kind":"inline","horizon":"10s","scenarios":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"id":"s%04d","faults":"open @caps.accel0.harness from %dus for 50us"}`, i, 100+i)
	}
	sb.WriteString(`]}}`)
	return sb.String()
}

// TestDaemonSigtermResumesToIdenticalResult is the kill/restart leg
// of the lifecycle matrix: SIGTERM mid-campaign stops the daemon with
// a partially-journaled pending run; a fresh daemon over the same
// data directory resumes it and completes to the byte-identical text
// result an uninterrupted daemon produces.
func TestDaemonSigtermResumesToIdenticalResult(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second daemon lifecycle test")
	}
	const scenarios = 300
	spec := bigSpec(scenarios)

	// Reference: the same spec, uninterrupted, in its own store.
	ref := StartDaemon(t, t.TempDir())
	if status, body := Post(t, ref.URL+"/runs", spec); status != http.StatusAccepted {
		t.Fatalf("reference POST = %d; body: %s", status, body)
	}
	WaitRunState(t, ref.URL, "r000001", "done", 120*time.Second)
	_, refText := Get(t, ref.URL+"/runs/r000001/result?format=text")

	// Victim daemon: SIGTERM once the event stream proves the campaign
	// is mid-flight (a progress event with completed < total).
	dataDir := t.TempDir()
	victim := StartDaemon(t, dataDir)
	if status, body := Post(t, victim.URL+"/runs", spec); status != http.StatusAccepted {
		t.Fatalf("victim POST = %d; body: %s", status, body)
	}
	resp, err := http.Get(victim.URL + "/runs/r000001/events")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	fired := false
	for sc.Scan() {
		var e struct {
			Type      string `json:"type"`
			State     string `json:"state"`
			Completed int    `json:"completed"`
			Total     int    `json:"total"`
			Final     bool   `json:"final"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if e.Type == "progress" && e.Completed > 0 && e.Completed < e.Total && !fired {
			fired = true
			victim.Signal(syscall.SIGTERM)
		}
		if e.Final {
			if !fired {
				t.Fatalf("run reached terminal state %q before any mid-flight progress event", e.State)
			}
			if e.State != "interrupted" {
				t.Fatalf("final event after SIGTERM is %q, want interrupted", e.State)
			}
			break
		}
	}
	resp.Body.Close()
	if !fired {
		t.Fatal("event stream ended without a mid-flight progress event")
	}
	victim.WaitExit(15 * time.Second)

	// The journal is partial: some, but not all, outcomes.
	j, err := journal.Read(filepath.Join(dataDir, "runs", "r000001", "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(j.Entries); n < 1 || n >= scenarios {
		t.Fatalf("journal has %d entries after SIGTERM, want partial (1..%d)", n, scenarios-1)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "runs", "r000001", "result.json")); err == nil {
		t.Fatal("interrupted run has a result.json; it must stay pending")
	}

	// Restart over the same store: the pending run is requeued,
	// resumed from its journal, and completes.
	revived := StartDaemon(t, dataDir)
	WaitRunState(t, revived.URL, "r000001", "done", 120*time.Second)
	_, text := Get(t, revived.URL+"/runs/r000001/result?format=text")
	if text != refText {
		t.Errorf("resumed result diverges from the uninterrupted run:\n--- resumed ---\n%s--- reference ---\n%s", text, refText)
	}

	// The metrics prove the resume skipped journaled work: the revived
	// daemon executed strictly fewer scenarios than the universe holds.
	status, mbody := Get(t, revived.URL+"/runs/r000001/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET metrics = %d", status)
	}
	var m struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(mbody), &m); err != nil {
		t.Fatalf("metrics body: %v", err)
	}
	skipped := m.Counters["campaign.resumed_skips{campaign=big}"]
	if skipped == 0 || skipped >= scenarios {
		t.Errorf("resumed daemon skipped %d journaled scenarios, want 1..%d", skipped, scenarios-1)
	}
}
