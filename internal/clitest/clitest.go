// Package clitest is the goldenfile end-to-end harness for every CLI
// surface of the repository. It builds the real command binaries once
// per test process, drives them as subprocesses — arguments, stdin,
// environment, signals — and compares their output byte-for-byte
// against committed goldenfiles under testdata/golden/.
//
// The same harness drives capsimd over HTTP, which is how the
// daemon's headline property is pinned: the text result a campaign
// spec produces through POST /runs must be byte-identical to the
// stdout of the equivalent capsim command line, i.e. both flows
// assert against the *same* goldenfile.
//
// Run with -update to regenerate the goldenfiles from current output:
//
//	go test ./internal/clitest -update
package clitest

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite goldenfiles under testdata/golden/ with current output")

// Main is the package's TestMain body: it creates the shared binary
// directory, runs the tests, and cleans up. Kept here so every test
// file stays declarative.
func Main(m *testing.M) int {
	dir, err := os.MkdirTemp("", "clitest-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	binDir = dir
	return m.Run()
}

var (
	binDir  string
	buildMu sync.Mutex
	built   = map[string]string{}
)

// Binary builds (once per test process) and returns the path of the
// named command under cmd/. The build runs through the ordinary `go
// build` cache, so repeated test invocations pay link time only.
func Binary(t testing.TB, name string) string {
	t.Helper()
	buildMu.Lock()
	defer buildMu.Unlock()
	if path, ok := built[name]; ok {
		return path
	}
	path := filepath.Join(binDir, name)
	cmd := exec.Command("go", "build", "-o", path, "repro/cmd/"+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/%s: %v\n%s", name, err, out)
	}
	built[name] = path
	return path
}

// Result is one finished subprocess invocation.
type Result struct {
	Stdout string
	Stderr string
	Code   int
}

// Run executes a binary to completion. env entries (KEY=VALUE) are
// appended to the inherited environment. A failure to even start the
// process fails the test; a non-zero exit is returned, not fatal —
// exit codes are part of the contract under test.
func Run(t testing.TB, env []string, bin string, args ...string) Result {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	res := Result{Stdout: stdout.String(), Stderr: stderr.String()}
	if err != nil {
		var exit *exec.ExitError
		if !errorsAs(err, &exit) {
			t.Fatalf("running %s %s: %v", bin, strings.Join(args, " "), err)
		}
		res.Code = exit.ExitCode()
	}
	return res
}

// errorsAs avoids importing errors just for one assertion.
func errorsAs(err error, target **exec.ExitError) bool {
	e, ok := err.(*exec.ExitError)
	if ok {
		*target = e
	}
	return ok
}

// Golden compares got against testdata/golden/<name>.golden,
// rewriting the file under -update. The diff output points at the
// first divergent line so a broken CLI surface reads like a failed
// code review, not a wall of bytes.
func Golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing goldenfile %s (regenerate with `go test ./internal/clitest -update`): %v", path, err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: first divergence at line %d:\n  got:  %q\n  want: %q\n--- full output ---\n%s", path, i+1, g, w, got)
		}
	}
	t.Fatalf("%s: output differs from golden (got %d bytes, want %d)", path, len(got), len(want))
}

// Normalization rules: the harness compares real subprocess output,
// so everything environmental — ephemeral ports, per-test temp paths,
// wall-clock rates — is rewritten to a stable placeholder before the
// goldenfile comparison.
var (
	portPat = regexp.MustCompile(`127\.0\.0\.1:\d+`)
	tmpPat  = regexp.MustCompile(`(/[^\s"'),]*(?:clitest|Test|tmp)[^\s"'),]*)+`)
	ratePat = regexp.MustCompile(`"runs_per_sec":[0-9.eE+-]+`)
	etaPat  = regexp.MustCompile(`"eta_ms":\d+`)
)

// Normalize rewrites environmental noise in s: listen ports become
// 127.0.0.1:PORT, temp paths become TMPDIR, and wall-clock progress
// rates become fixed placeholders.
func Normalize(s string) string {
	s = portPat.ReplaceAllString(s, "127.0.0.1:PORT")
	s = tmpPat.ReplaceAllString(s, "TMPDIR")
	s = ratePat.ReplaceAllString(s, `"runs_per_sec":0`)
	s = etaPat.ReplaceAllString(s, `"eta_ms":0`)
	return s
}

// promSamplePat matches one Prometheus exposition sample line,
// capturing everything up to the value.
var promSamplePat = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) \S+$`)

// NormalizeMetrics rewrites every sample value in a Prometheus text
// exposition to the placeholder V, leaving names, labels, and TYPE
// comments intact — the goldenfile then pins the document's *shape*
// (which families and series exist, in which order) without pinning
// wall-clock-dependent values.
func NormalizeMetrics(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		lines[i] = promSamplePat.ReplaceAllString(l, "$1 V")
	}
	return strings.Join(lines, "\n")
}

// lockedBuffer is a goroutine-safe bytes.Buffer for capturing a live
// subprocess's stderr while the test concurrently inspects it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (lb *lockedBuffer) Write(p []byte) (int, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.Write(p)
}

func (lb *lockedBuffer) String() string {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.String()
}

// Daemon is a live capsimd subprocess started by StartDaemon.
type Daemon struct {
	t       testing.TB
	cmd     *exec.Cmd
	waitErr chan error
	stderr  *lockedBuffer

	linesMu sync.Mutex
	lines   []string // every stdout line seen so far

	// URL is the daemon's base URL (http://127.0.0.1:<port>).
	URL string
	// Ready is the normalized readiness line the daemon printed.
	Ready string
}

var (
	readyPat = regexp.MustCompile(`^capsimd listening on (http://[^ ]+) `)
	debugPat = regexp.MustCompile(`^capsimd debug listening on (http://[^ ]+)$`)
)

// StartDaemon launches capsimd on an ephemeral port over dataDir and
// waits for its readiness line. Stderr (structured logs, flight
// dumps) is captured; read it with Stderr/WaitStderr. The daemon is
// SIGKILLed at test cleanup if the test did not stop it itself.
func StartDaemon(t testing.TB, dataDir string, extraArgs ...string) *Daemon {
	t.Helper()
	bin := Binary(t, "capsimd")
	args := append([]string{"-addr", "127.0.0.1:0", "-data", dataDir, "-quiet"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	d := &Daemon{t: t, cmd: cmd, waitErr: make(chan error, 1), stderr: &lockedBuffer{}}
	cmd.Stderr = d.stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting capsimd: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-d.waitErr
	})

	sc := bufio.NewScanner(stdout)
	lineCh := make(chan string, 16)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			d.linesMu.Lock()
			d.lines = append(d.lines, line)
			d.linesMu.Unlock()
			select {
			case lineCh <- line:
			default:
			}
		}
	}()
	go func() { d.waitErr <- cmd.Wait() }()
	deadline := time.After(30 * time.Second)
	// Scan past auxiliary lines (e.g. the -debug-addr readiness) until
	// the main handshake appears.
	for d.URL == "" {
		select {
		case line := <-lineCh:
			if m := readyPat.FindStringSubmatch(line); m != nil {
				d.URL = m[1]
				d.Ready = Normalize(line)
			}
		case err := <-d.waitErr:
			d.waitErr <- err
			t.Fatalf("capsimd exited before becoming ready; stderr:\n%s\nerr: %v", d.stderr.String(), err)
		case <-deadline:
			t.Fatal("capsimd readiness line timed out")
		}
	}
	return d
}

// DebugURL returns the -debug-addr pprof base URL the daemon
// announced, or "" when it runs without one.
func (d *Daemon) DebugURL() string {
	d.linesMu.Lock()
	defer d.linesMu.Unlock()
	for _, l := range d.lines {
		if m := debugPat.FindStringSubmatch(l); m != nil {
			return m[1]
		}
	}
	return ""
}

// WaitStderr polls the daemon's stderr for up to timeout until it
// contains every one of marks in that order (each is searched for
// after the match of the one before). It returns the stderr read so far
// and the first mark still missing, "" when all were found. The daemon
// writes a multi-line report one line at a time, so wait for the last
// line a test asserts on, never for a header above it.
func (d *Daemon) WaitStderr(timeout time.Duration, marks ...string) (out, missing string) {
	deadline := time.Now().Add(timeout)
	for {
		out = d.stderr.String()
		rest := out
		missing = ""
		for _, mark := range marks {
			i := strings.Index(rest, mark)
			if i < 0 {
				missing = mark
				break
			}
			rest = rest[i+len(mark):]
		}
		if missing == "" || time.Now().After(deadline) {
			return out, missing
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Signal delivers sig (e.g. SIGTERM) to the daemon.
func (d *Daemon) Signal(sig syscall.Signal) {
	d.t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil {
		d.t.Fatalf("signaling capsimd: %v", err)
	}
}

// WaitExit blocks until the daemon process exits.
func (d *Daemon) WaitExit(timeout time.Duration) {
	d.t.Helper()
	select {
	case err := <-d.waitErr:
		d.waitErr <- err
	case <-time.After(timeout):
		d.t.Fatal("capsimd did not exit in time")
	}
}

// HTTP helpers. The harness asserts on raw bodies, so these return
// status and bytes, never decoded structures.

// Get fetches an URL and returns (status, body).
func Get(t testing.TB, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// Post sends body to an URL and returns (status, response body).
func Post(t testing.TB, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(data)
}

// WaitRunState polls a run until it reaches want (done/failed) or the
// timeout elapses, returning the final GET /runs/{id} body.
func WaitRunState(t testing.TB, base, id, want string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		status, body := Get(t, base+"/runs/"+id)
		if status == http.StatusOK && strings.Contains(body, `"state":"`+want+`"`) {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s did not reach state %q in %v; last body: %s", id, want, timeout, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// StreamEvents reads the NDJSON /events stream of a run until its
// final event (or timeout) and returns the raw lines.
func StreamEvents(t testing.TB, base, id string, timeout time.Duration) []string {
	t.Helper()
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(base + "/runs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines
}
