package campaignd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// genInline builds an inline-universe spec of n scenarios; at a 10s
// horizon each scenario costs a few milliseconds of wall clock, which
// is how the lifecycle tests dilate campaigns enough to observe them
// mid-flight. The faults are transient, so no two scenarios share a
// fork window's run: each simulates to the horizon.
func genInline(campaign string, n int, horizon string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"campaign":%q,"universe":{"kind":"inline","horizon":%q,"scenarios":[`, campaign, horizon)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"id":"s%04d","faults":"open @caps.accel0.harness from %dus for 50us"}`, i, 100+i)
	}
	sb.WriteString(`]}}`)
	return sb.String()
}

const tinySpec = `{"campaign":"tiny","universe":{"kind":"inline","horizon":"2ms","scenarios":[` +
	`{"id":"a","faults":"open @caps.accel0.harness from 100us"},` +
	`{"id":"b","faults":"omission @caps.can.bus from 200us"},` +
	`{"id":"c","faults":"stuck-at-1 @caps.accel0.harness from 300us"}]}}`

// newTestDaemon builds a started scheduler + HTTP server over a fresh
// store. Progress rate limiting is off so tests see every completion.
func newTestDaemon(t testing.TB) (*Scheduler, *httptest.Server) {
	t.Helper()
	sched, err := NewScheduler(Config{DataDir: t.TempDir(), ProgressInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	sched.Start()
	srv := httptest.NewServer(NewServer(sched))
	t.Cleanup(func() {
		srv.Close()
		sched.Stop()
	})
	return sched, srv
}

// submit POSTs a spec and returns the allocated run ID.
func submit(t testing.TB, url, spec string) string {
	t.Helper()
	resp, err := http.Post(url+"/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /runs = %d: %s", resp.StatusCode, body.Error)
	}
	return body.ID
}

// waitFinal blocks until a run's terminal event, failing the test
// unless the state matches want. A run whose hub is already gone is
// terminal — the scheduler releases a hub with its done or failed event
// — and the store answers for it.
func waitFinal(t testing.TB, sched *Scheduler, id, want string) {
	t.Helper()
	h := sched.Hub(id)
	if h == nil {
		state, err := sched.Store().State(id)
		if err != nil || state != want {
			t.Fatalf("run %s without a hub is %q (err %v, %s), want %q", id, state, err, sched.Store().ReadRunError(id), want)
		}
		return
	}
	ch, cancel := h.subscribe()
	defer cancel()
	deadline := time.After(120 * time.Second)
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				t.Fatalf("run %s: event stream closed without a final event", id)
			}
			if e.Final {
				if e.State != want {
					t.Fatalf("run %s finished %q (%s), want %q", id, e.State, e.Error, want)
				}
				return
			}
		case <-deadline:
			t.Fatalf("run %s: no final event", id)
		}
	}
}

// TestServerRunLifecycle drives one campaign through every endpoint:
// submit, status, events, result (JSON and text), metrics, list.
func TestServerRunLifecycle(t *testing.T) {
	sched, srv := newTestDaemon(t)
	id := submit(t, srv.URL, tinySpec)
	if id != "r000001" {
		t.Fatalf("first run id = %q", id)
	}
	waitFinal(t, sched, id, StateDone)

	var st struct{ State, Campaign string }
	getJSON(t, srv.URL+"/runs/"+id, &st)
	if st.State != StateDone || st.Campaign != "tiny" {
		t.Fatalf("run status = %+v", st)
	}

	var doc ResultDoc
	getJSON(t, srv.URL+"/runs/"+id+"/result", &doc)
	if doc.Scenarios != 3 || len(doc.Outcomes) != 3 {
		t.Fatalf("result doc = %+v", doc)
	}
	resp, err := http.Get(srv.URL + "/runs/" + id + "/result?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, resp)
	if !strings.Contains(text, "campaign:  3 inline scenarios, workers=0") || !strings.Contains(text, "tally:") {
		t.Fatalf("text result:\n%s", text)
	}
	if text != doc.Text {
		t.Fatal("format=text body differs from the result document's Text")
	}

	var metrics struct {
		Counters map[string]uint64 `json:"counters"`
	}
	getJSON(t, srv.URL+"/runs/"+id+"/metrics", &metrics)
	if metrics.Counters["campaign.runs{campaign=tiny}"] != 3 {
		t.Fatalf("metrics counters = %v", metrics.Counters)
	}

	var list struct {
		Runs []struct{ ID, State string } `json:"runs"`
	}
	getJSON(t, srv.URL+"/runs", &list)
	if len(list.Runs) != 1 || list.Runs[0].ID != id || list.Runs[0].State != StateDone {
		t.Fatalf("run list = %+v", list.Runs)
	}
}

// TestSubmittedSpecIsParsedOnce: the executor runs the spec Submit
// parsed and status names the run from what Submit saw — neither goes
// back to spec.json, which this test makes unreadable after the submit.
// A daemon that did not accept the run itself still reads the store,
// once per run.
func TestSubmittedSpecIsParsedOnce(t *testing.T) {
	dir := t.TempDir()
	sched, err := NewScheduler(Config{DataDir: dir, ProgressInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(sched))
	defer srv.Close()
	id := submit(t, srv.URL, tinySpec)
	specPath := filepath.Join(sched.Store().RunDir(id), "spec.json")
	if err := os.WriteFile(specPath, []byte(`{"campaign":`), 0o644); err != nil {
		t.Fatal(err)
	}
	sched.Start()
	waitFinal(t, sched, id, StateDone)
	var st struct{ State, Campaign string }
	getJSON(t, srv.URL+"/runs/"+id, &st)
	if st.State != StateDone || st.Campaign != "tiny" {
		t.Fatalf("run status = %+v", st)
	}
	sched.Stop()

	if err := os.WriteFile(specPath, []byte(tinySpec), 0o644); err != nil {
		t.Fatal(err)
	}
	next, err := NewScheduler(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if name := next.CampaignName(id); name != "tiny" {
		t.Fatalf("a later daemon names the run %q", name)
	}
	if err := os.Remove(specPath); err != nil {
		t.Fatal(err)
	}
	if name := next.CampaignName(id); name != "tiny" {
		t.Fatalf("asked again, the later daemon names the run %q", name)
	}
}

// TestServerEventStreamShape pins the event grammar on a live run: a
// state event first, progress events strictly monotonic, exactly one
// final event, state done.
func TestServerEventStreamShape(t *testing.T) {
	_, srv := newTestDaemon(t)
	id := submit(t, srv.URL, genInline("stream", 48, "10s"))
	resp, err := http.Get(srv.URL + "/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var events []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event %q: %v", sc.Text(), err)
		}
		events = append(events, e)
		if e.Final {
			break
		}
	}
	if len(events) < 2 {
		t.Fatalf("stream delivered %d events", len(events))
	}
	if events[0].Type != "state" {
		t.Fatalf("first event is %+v, want a state event", events[0])
	}
	last := events[len(events)-1]
	if !last.Final || last.State != StateDone {
		t.Fatalf("last event = %+v", last)
	}
	completed := -1
	progress := 0
	for _, e := range events {
		if e.Type != "progress" {
			continue
		}
		progress++
		// Monotonic, never decreasing; the meter's final update may
		// repeat the last completion count.
		if e.Run != id || e.Total != 48 || e.Completed < completed {
			t.Fatalf("progress event out of order or mislabeled: %+v (prev completed %d)", e, completed)
		}
		completed = e.Completed
	}
	if progress == 0 {
		t.Fatal("no progress events on an unthrottled stream")
	}
}

// TestServerConcurrentClientsFIFO submits from many clients at once:
// every submission gets a unique ID, the executor never runs two
// campaigns at a time (observed as: a later run is still queued while
// an earlier one is running), and every run completes with the same
// result bytes for the same spec.
func TestServerConcurrentClientsFIFO(t *testing.T) {
	sched, srv := newTestDaemon(t)

	// A run long enough to be observed mid-flight, then a tiny one.
	first := submit(t, srv.URL, genInline("fifo", 64, "10s"))
	second := submit(t, srv.URL, tinySpec)

	// While the first run is live, the second must sit queued: the
	// worker slots of the in-flight campaign are never shared.
	h := sched.Hub(first)
	ch, cancel := h.subscribe()
	sawRunning := false
	for e := range ch {
		if e.Type == "state" && e.State == StateRunning {
			sawRunning = true
			var st struct{ State string }
			getJSON(t, srv.URL+"/runs/"+second, &st)
			if st.State != StateQueued {
				t.Errorf("second run is %q while first is running, want queued", st.State)
			}
			break
		}
		if e.Final {
			break
		}
	}
	cancel()
	if !sawRunning {
		t.Fatal("never observed the first run in running state")
	}
	waitFinal(t, sched, first, StateDone)
	waitFinal(t, sched, second, StateDone)

	// A storm of concurrent clients: unique IDs, all completed.
	const clients = 8
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = submit(t, srv.URL, tinySpec)
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate run id %s", id)
		}
		seen[id] = true
		waitFinal(t, sched, id, StateDone)
	}
	// Identical specs land on identical result bytes.
	want, err := sched.Store().ReadDoc(ids[0], DocResult)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[1:] {
		got, err := sched.Store().ReadDoc(id, DocResult)
		if err != nil {
			t.Fatal(err)
		}
		// Result bytes embed the run ID; compare with it factored out.
		if string(normalizeID(got, id)) != string(normalizeID(want, ids[0])) {
			t.Errorf("run %s result diverges from %s", id, ids[0])
		}
	}
}

func normalizeID(doc []byte, id string) []byte {
	return []byte(strings.ReplaceAll(string(doc), `"id":"`+id+`"`, `"id":"rXXXXXX"`))
}

// TestServerMergeShards submits a sharded campaign and merges it over
// POST /merge: the merged text must equal the unsharded run's.
func TestServerMergeShards(t *testing.T) {
	sched, srv := newTestDaemon(t)
	base := `"universe":{"kind":"caps-single-fault","horizon":"30ms"},"workers":2`
	s0 := submit(t, srv.URL, `{"campaign":"m","shard":"0/2",`+base+`}`)
	s1 := submit(t, srv.URL, `{"campaign":"m","shard":"1/2",`+base+`}`)
	whole := submit(t, srv.URL, `{"campaign":"m",`+base+`}`)
	for _, id := range []string{s0, s1, whole} {
		waitFinal(t, sched, id, StateDone)
	}

	mergeReq := fmt.Sprintf(`{"campaign":"m","universe":{"kind":"caps-single-fault","horizon":"30ms"},"runs":[%q,%q]}`, s0, s1)
	resp, err := http.Post(srv.URL+"/merge", "application/json", strings.NewReader(mergeReq))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /merge = %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var merged ResultDoc
	if err := json.NewDecoder(resp.Body).Decode(&merged); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var wholeDoc ResultDoc
	getJSON(t, srv.URL+"/runs/"+whole+"/result", &wholeDoc)
	if merged.Text == "" {
		t.Fatal("merged result has no text")
	}
	// The shard summaries differ only in the shard line the unsharded
	// run does not print; tallies and outcomes must match exactly.
	if fmt.Sprint(merged.Tally) != fmt.Sprint(wholeDoc.Tally) {
		t.Errorf("merged tally %v != unsharded %v", merged.Tally, wholeDoc.Tally)
	}
	if len(merged.Outcomes) != len(wholeDoc.Outcomes) {
		t.Fatalf("merged %d outcomes, unsharded %d", len(merged.Outcomes), len(wholeDoc.Outcomes))
	}
	for i := range merged.Outcomes {
		if merged.Outcomes[i] != wholeDoc.Outcomes[i] {
			t.Errorf("outcome %d: merged %+v != unsharded %+v", i, merged.Outcomes[i], wholeDoc.Outcomes[i])
		}
	}

	// The request decodes as strictly as a spec: a typo'd knob or
	// trailing data is a 400 naming it, never a merge without it.
	for body, want := range map[string]string{
		strings.Replace(mergeReq, `"runs"`, `"stop_on_frist":true,"runs"`, 1): `unknown field \"stop_on_frist\"`,
		mergeReq + ` {}`: "trailing data after merge request",
	} {
		resp, err := http.Post(srv.URL+"/merge", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(got, want) {
			t.Errorf("POST /merge %s = %d %s, want 400 naming %s", body, resp.StatusCode, got, want)
		}
	}

	// Merging an unknown run is a structured conflict, not a panic.
	badReq := fmt.Sprintf(`{"campaign":"m","universe":{"kind":"caps-single-fault","horizon":"30ms"},"runs":[%q,"r000099"]}`, s0)
	resp, err = http.Post(srv.URL+"/merge", "application/json", strings.NewReader(badReq))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("merge with unknown run = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// An adaptive spec describes no shardable universe: MergeRuns must
	// refuse it instead of merging the shards of the fixed one.
	adaptive := mustSpec(t, `{"campaign":"m","universe":{"kind":"caps-single-fault","horizon":"30ms"},"adaptive":true}`)
	if _, err := sched.MergeRuns(adaptive, []string{s0, s1}); err == nil || !strings.Contains(err.Error(), "adaptive") {
		t.Errorf("MergeRuns with an adaptive spec: want an adaptive error, got %v", err)
	}
}

// TestServerRejectsGarbage hammers the submission surface with
// malformed bodies: every one is a structured 4xx, none panics the
// daemon, and a valid submission still works afterwards.
func TestServerRejectsGarbage(t *testing.T) {
	sched, srv := newTestDaemon(t)
	bad := []string{
		``,
		`not json`,
		`[]`,
		`{"wat":1}`,
		`{"universe":{"kind":"exotic"}}`,
		`{"universe":{"horizon":"never"}}`,
		`{"universe":{"horizon":"999s"}}`,
		`{"universe":{"inject":"90ms"}}`,
		`{"universe":{},"workers":123456}`,
		`{"universe":{},"workers":-7}`,
		`{"universe":{},"shard":"9/4"}`,
		`{"universe":{},"shard":"0/9999"}`,
		`{"universe":{},"scenario_timeout":"2h"}`,
		`{"universe":{"kind":"inline","scenarios":[]}}`,
		`{"universe":{"kind":"inline","scenarios":[{"id":"","faults":"x"}]}}`,
		`{"universe":{"kind":"inline","scenarios":[{"id":"a","faults":"gibberish"}]}}`,
		`{"universe":{"kind":"inline","scenarios":[{"id":"a","faults":"open @caps.accel0.harness from 1ms"},{"id":"a","faults":"open @caps.accel0.harness from 2ms"}]}}`,
		`{"universe":{"kind":"inline","inject":"1ms","scenarios":[{"id":"a","faults":"open @caps.accel0.harness from 1ms"}]}}`,
		`{"universe":{"kind":"caps-single-fault","scenarios":[{"id":"a","faults":"open @caps.accel0.harness from 1ms"}]}}`,
		`{"universe":{}} trailing`,
		`{"campaign":"` + strings.Repeat("x", 200) + `","universe":{}}`,
		"{\"campaign\":\"a\u0001b\",\"universe\":{}}",
	}
	for _, body := range bad {
		resp, err := http.Post(srv.URL+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %q: %v", body, err)
		}
		data := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q = %d, want 400; body: %s", body, resp.StatusCode, data)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(data), &e); err != nil || e.Error == "" {
			t.Errorf("POST %q: error body is not structured: %s", body, data)
		}
	}

	// An over-limit body is rejected by size, not parsed.
	huge := `{"campaign":"` + strings.Repeat("x", MaxSpecBytes) + `","universe":{}}`
	resp, err := http.Post(srv.URL+"/runs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized spec = %d, want 413", resp.StatusCode)
	}
	resp.Body.Close()

	// The daemon survived all of it.
	id := submit(t, srv.URL, tinySpec)
	waitFinal(t, sched, id, StateDone)
}

func getJSON(t testing.TB, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func readAll(t testing.TB, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
