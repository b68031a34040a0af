package clitest

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaignd"
)

// fabricSpec is the spec JSON the fabric tests feed capsim-coord: the
// same campaign as capsimCampaignArgs, so the coordinator's -oneshot
// summary asserts against the very goldenfile the capsim CLI and the
// capsimd daemon already share.
const fabricSpec = `{"campaign":"e2e","universe":{"kind":"caps-single-fault","horizon":"30ms"},"workers":2}`

var coordReadyPat = regexp.MustCompile(`^capsim-coord listening on (http://[^ ]+) `)

// coordProc is a live capsim-coord subprocess.
type coordProc struct {
	t       *testing.T
	cmd     *exec.Cmd
	waitErr chan error
	stdout  *lockedBuffer
	stderr  *lockedBuffer

	// URL is the coordinator's base URL parsed from the readiness line.
	URL string
}

// startCoord launches capsim-coord on an ephemeral port with the given
// spec JSON and waits for its readiness handshake line. The process is
// SIGKILLed at cleanup if the test did not wait for it to exit.
func startCoord(t *testing.T, spec string, extraArgs ...string) *coordProc {
	t.Helper()
	specPath := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-spec", specPath, "-quiet"}, extraArgs...)
	cmd := exec.Command(Binary(t, "capsim-coord"), args...)
	c := &coordProc{t: t, cmd: cmd, waitErr: make(chan error, 1), stdout: &lockedBuffer{}, stderr: &lockedBuffer{}}
	cmd.Stdout, cmd.Stderr = c.stdout, c.stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting capsim-coord: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-c.waitErr
	})
	go func() { c.waitErr <- cmd.Wait() }()

	deadline := time.Now().Add(30 * time.Second)
	for c.URL == "" {
		line, _, _ := strings.Cut(c.stdout.String(), "\n")
		if m := coordReadyPat.FindStringSubmatch(line); m != nil {
			c.URL = m[1]
			break
		}
		select {
		case err := <-c.waitErr:
			c.waitErr <- err
			t.Fatalf("capsim-coord exited before becoming ready; stderr:\n%s\nerr: %v", c.stderr.String(), err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("capsim-coord readiness line timed out")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return c
}

// waitExit blocks until the coordinator exits and returns its stdout
// split into the readiness line and everything after it (for a
// -oneshot coordinator, the campaign summary block).
func (c *coordProc) waitExit(timeout time.Duration) (ready, rest string) {
	c.t.Helper()
	select {
	case err := <-c.waitErr:
		c.waitErr <- err
		if err != nil {
			c.t.Fatalf("capsim-coord exited with error: %v\nstderr:\n%s", err, c.stderr.String())
		}
	case <-time.After(timeout):
		c.t.Fatalf("capsim-coord did not exit in time; stdout so far:\n%s", c.stdout.String())
	}
	out := c.stdout.String()
	i := strings.Index(out, "\n")
	if i < 0 {
		c.t.Fatalf("capsim-coord stdout has no readiness line: %q", out)
	}
	return out[:i], out[i+1:]
}

// TestCoordRefusesShardCountOutOfRange: -shards is bounded like a
// spec's shard count, before anything is sized by it or listens. A
// count of 1<<40 would otherwise size the lease table and die out of
// memory.
func TestCoordRefusesShardCountOutOfRange(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(specPath, []byte(fabricSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, campaignd.MaxShardCount + 1, 1 << 40} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, Binary(t, "capsim-coord"),
			"-addr", "127.0.0.1:0", "-spec", specPath, "-shards", fmt.Sprint(n), "-data", t.TempDir(), "-oneshot", "-quiet")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		cancel()
		want := fmt.Sprintf("capsim-coord: -shards %d out of range 1..%d\n", n, campaignd.MaxShardCount)
		if err == nil || stderr.String() != want || stdout.Len() != 0 {
			t.Errorf("capsim-coord -shards %d: err %v, stdout %q, stderr %q; want a non-zero exit, no readiness line and %q",
				n, err, stdout.String(), stderr.String(), want)
		}
	}
}

// TestFabricPairGolden is the distributed-campaign headline pinned at
// the process level: a capsim-coord -oneshot coordinator fed two real
// capsim-worker subprocesses over HTTP must print the byte-identical
// summary block that `capsim -campaign e2e ...` prints — the same
// goldenfile the CLI and the daemon already assert against.
func TestFabricPairGolden(t *testing.T) {
	coord := startCoord(t, fabricSpec, "-oneshot", "-shards", "4", "-data", t.TempDir())
	worker := Binary(t, "capsim-worker")

	// Announce both workers before either process exists. The campaign is
	// 21 scenarios: one worker can finish it while the other is still
	// starting up, and a one-shot coordinator stays only for the workers
	// it knows of — each is owed a "campaign done" before it leaves. A
	// worker that came up to a closed port would (rightly) exit 1.
	for _, name := range []string{"w1", "w2"} {
		if code, body := Post(t, coord.URL+"/workers", fmt.Sprintf(`{"worker":%q}`, name)); code != http.StatusOK {
			t.Fatalf("registering %s: HTTP %d: %s", name, code, body)
		}
	}
	if _, status := Get(t, coord.URL+"/status"); !strings.Contains(status, `"workers":["w1","w2"]`) {
		t.Fatalf("coordinator does not list both workers: %s", status)
	}

	var wg sync.WaitGroup
	results := make([]Result, 2)
	for i := range results {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = Run(t, nil, worker,
				"-coord", coord.URL, "-name", fmt.Sprintf("w%d", i+1), "-heartbeat", "50ms", "-quiet")
		}()
	}
	wg.Wait()
	for i, r := range results {
		if r.Code != 0 {
			t.Fatalf("worker w%d: exit %d\nstdout:\n%s\nstderr:\n%s", i+1, r.Code, r.Stdout, r.Stderr)
		}
		Golden(t, "fabric_worker", Normalize(strings.ReplaceAll(r.Stdout, fmt.Sprintf("w%d", i+1), "W")))
	}

	ready, summary := coord.waitExit(30 * time.Second)
	Golden(t, "fabric_coord_ready", Normalize(ready)+"\n")
	Golden(t, goldenCampaign, summary)
}

// TestFabricWorkerKillResumeGolden kills a real worker process with
// SIGKILL mid-lease and proves the campaign still completes with the
// goldenfiled summary: the stalled worker's lease expires, the second
// worker is granted the shard *with the outcomes already flushed*, and
// resumes instead of restarting.
func TestFabricWorkerKillResumeGolden(t *testing.T) {
	coord := startCoord(t, fabricSpec, "-oneshot", "-shards", "2", "-data", t.TempDir(),
		"-lease-ttl", "500ms")
	worker := Binary(t, "capsim-worker")

	// Worker 1 stalls forever inside its third scenario; the campaign's
	// other worker goroutine keeps completing scenarios and the heartbeat
	// keeps flushing them, but the stalled scenario pins the lease short
	// of done — so outcomes reach the coordinator and then progress stops.
	w1 := exec.Command(worker, "-coord", coord.URL, "-name", "w1", "-heartbeat", "50ms", "-quiet")
	w1.Env = append(os.Environ(), "CAPSIM_WORKER_STALL_AFTER=3")
	if err := w1.Start(); err != nil {
		t.Fatalf("starting worker w1: %v", err)
	}
	w1Exit := make(chan error, 1)
	go func() { w1Exit <- w1.Wait() }()
	t.Cleanup(func() {
		w1.Process.Kill()
		<-w1Exit
	})

	// Wait until the coordinator has recorded at least one of w1's
	// flushed outcomes, then SIGKILL the stalled process — a real worker
	// death, not a cooperative shutdown.
	flushedPat := regexp.MustCompile(`"recorded":[1-9]`)
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := Get(t, coord.URL+"/status")
		if flushedPat.MatchString(body) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never recorded w1's flushed outcomes; status: %s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	w1.Process.Kill()
	w1Exit <- <-w1Exit // keep the exit buffered for the Cleanup receive

	// Worker 2 finishes the campaign: its own shard immediately, w1's
	// shard once the lease TTL expires. Logs stay on so the test can
	// prove the regrant really resumed from flushed entries.
	r := Run(t, nil, worker, "-coord", coord.URL, "-name", "w2", "-heartbeat", "50ms")
	if r.Code != 0 {
		t.Fatalf("worker w2: exit %d\nstdout:\n%s\nstderr:\n%s", r.Code, r.Stdout, r.Stderr)
	}
	if !regexp.MustCompile(`msg="lease granted".*resume=[1-9]`).MatchString(r.Stderr) {
		t.Errorf("w2 was never granted a lease with resume entries — shard restarted instead of resumed?\nstderr:\n%s", r.Stderr)
	}
	Golden(t, "fabric_worker", Normalize(strings.ReplaceAll(r.Stdout, "w2", "W")))

	_, summary := coord.waitExit(30 * time.Second)
	Golden(t, goldenCampaign, summary)
}
