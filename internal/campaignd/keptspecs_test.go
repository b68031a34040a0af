package campaignd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/caps"
	"repro/internal/sim"
)

// TestResubmittedSpecIsNotParsedAgain: a body the daemon parsed once is
// handed the same spec — inline universe included — when it is
// submitted again and when its stored spec.json is read back, so the
// executor runs what the first submission parsed. A body one byte away
// is parsed for itself.
func TestResubmittedSpecIsNotParsedAgain(t *testing.T) {
	sched, err := NewScheduler(Config{DataDir: t.TempDir(), ProgressInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(sched))
	defer srv.Close()
	defer sched.Stop()
	body := genInline("again", 16, "2ms")
	first, second := submit(t, srv.URL, body), submit(t, srv.URL, body)
	other := submit(t, srv.URL, strings.Replace(body, `"again"`, `"agaim"`, 1))
	sched.mu.Lock()
	a, b, c := sched.pending[first], sched.pending[second], sched.pending[other]
	sched.mu.Unlock()
	if a == nil || a != b {
		t.Fatalf("a resubmitted body was parsed again: %p, then %p", a, b)
	}
	if stored, err := sched.readSpec(second); err != nil || stored != a {
		t.Fatalf("its stored spec.json read back: %p (err %v), want the kept %p", stored, err, a)
	}
	if c == a || c.Campaign != "agaim" {
		t.Fatalf("a body one byte away was served the kept spec of %q", c.Campaign)
	}

	sched.Start()
	docs := map[string][]byte{}
	for _, id := range []string{first, second, other} {
		waitFinal(t, sched, id, StateDone)
		doc, err := sched.Store().ReadDoc(id, DocResult)
		if err != nil {
			t.Fatal(err)
		}
		docs[id] = normalizeID(doc, id)
	}
	if string(docs[first]) != string(docs[second]) {
		t.Error("two runs of one kept spec produced different results")
	}
}

// TestRefusedSpecIsNeverKept: a body that does not validate is refused
// with the same 400 each time it is sent, and nothing of it is kept.
func TestRefusedSpecIsNeverKept(t *testing.T) {
	sched, srv := newTestDaemon(t)
	for _, c := range []struct{ path, body string }{
		{"/runs", `{"universe":{"horizon":"never"}}`},
		{"/runs", `{"universe":{"kind":"inline","scenarios":[{"id":"a","faults":"open @x for 0s"}]}}`},
	} {
		var answers []string
		for range 2 {
			resp, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, fmt.Sprintf("%d %s", resp.StatusCode, readAll(t, resp)))
		}
		if !strings.HasPrefix(answers[0], "400 ") || answers[1] != answers[0] {
			t.Errorf("POST %s %s answered %q, then %q; want one 400 twice", c.path, c.body, answers[0], answers[1])
		}
	}
	sched.kept.mu.Lock()
	defer sched.kept.mu.Unlock()
	if len(sched.kept.m) != 0 || len(sched.kept.order) != 0 || sched.kept.bytes != 0 {
		t.Errorf("refused bodies were kept: %d entries, %d bytes", len(sched.kept.m), sched.kept.bytes)
	}
}

// TestKeptSpecsEvictTheOldestPastTheByteBound: bodies of the largest
// size a request may carry fill the bound exactly; one more evicts the
// oldest and nothing else, and the evicted body is parsed afresh.
func TestKeptSpecsEvictTheOldestPastTheByteBound(t *testing.T) {
	body := func(i int) []byte {
		s := fmt.Sprintf(`{"campaign":"k%d","universe":{}}`, i)
		return []byte(s + strings.Repeat(" ", MaxSpecBytes-len(s)))
	}
	var k keptSpecs
	n := maxKeptSpecBytes / MaxSpecBytes
	specs := make([]*Spec, n+1)
	for i := range specs {
		var err error
		if specs[i], err = k.spec(body(i)); err != nil {
			t.Fatal(err)
		}
		if i < n && k.bytes != (i+1)*MaxSpecBytes {
			t.Fatalf("%d bodies keep %d bytes", i+1, k.bytes)
		}
	}
	if k.bytes > maxKeptSpecBytes || len(k.m) != n || k.m[string(body(0))] != nil {
		t.Fatalf("%d bodies, %d bytes kept, the first among them: %v; bound %d bytes", len(k.m), k.bytes, k.m[string(body(0))] != nil, maxKeptSpecBytes)
	}
	for i := 1; i <= n; i++ {
		if kept := k.m[string(body(i))]; kept == nil || kept != specs[i] {
			t.Errorf("body %d: evicted, though newer than the first", i)
		}
	}
	if again, err := k.spec(body(0)); err != nil || again == specs[0] || k.m[string(body(1))] != nil {
		t.Errorf("the evicted first body sent again: parsed afresh %v (err %v), the second evicted %v", again != specs[0], err, k.m[string(body(1))] == nil)
	}
}

// TestConcurrentResubmitsShareAKeptSpec: identical bodies submitted from
// several clients at once, while a run of the same body executes and
// status is read, share one kept spec; every run produces the first
// one's result. Under -race this shows nothing writes to a kept Spec.
// The executor starts only once the first run is joined, so that run
// cannot finish before.
func TestConcurrentResubmitsShareAKeptSpec(t *testing.T) {
	sched, err := NewScheduler(Config{DataDir: t.TempDir(), ProgressInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(sched))
	t.Cleanup(srv.Close)
	body := genInline("shared", 24, "2s")
	first := submit(t, srv.URL, body)
	events, cancel := sched.Hub(first).subscribe()
	sched.Start()
	t.Cleanup(sched.Stop)
	for e := range events {
		if e.State != StateQueued {
			break
		}
	}
	cancel()
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ids = []string{first}
	)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2 {
				resp, err := http.Post(srv.URL+"/runs", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var r struct{ ID string }
				err = json.NewDecoder(resp.Body).Decode(&r)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusAccepted {
					t.Errorf("POST /runs: HTTP %d, %v", resp.StatusCode, err)
					return
				}
				if st, err := http.Get(srv.URL + "/runs/" + first); err == nil {
					st.Body.Close()
				}
				mu.Lock()
				ids = append(ids, r.ID)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var want []byte
	for _, id := range ids {
		waitFinal(t, sched, id, StateDone)
		doc, err := sched.Store().ReadDoc(id, DocResult)
		if err != nil {
			t.Fatal(err)
		}
		if doc = normalizeID(doc, id); want == nil {
			want = doc
		} else if string(doc) != string(want) {
			t.Errorf("run %s of the shared spec: result differs from run %s's", id, first)
		}
	}
}

// TestDaemonAllocationBudget pins what a warm daemon allocates per
// scenario for a repeated inline spec, submit to result over HTTP: the
// spec is kept (not decoded and validated again), its universe's plan
// and fingerprint are kept by the warm runner, so what is left is the
// runs, the journal and the documents. With a spec parsed and a
// universe hashed per submission it read 15.9 (17.0 under -race); with an
// outputs map, a rendered detail and a detection list per run 7.7 (8.0);
// with a span argument boxed per run even untraced 5.0 (5.3); it reads
// 4.0 (4.3).
func TestDaemonAllocationBudget(t *testing.T) {
	runner, err := caps.NewRunner(caps.Protected(), caps.NormalDriving(), sim.MS(80))
	if err != nil {
		t.Fatal(err)
	}
	var scenarios []string
	for i := 0; i < 8; i++ {
		at := sim.MS(5) + sim.Time(i)*sim.US(250)
		for _, d := range runner.Universe(at) {
			scenarios = append(scenarios, fmt.Sprintf(`{"id":"%s@%dus","faults":%q}`, d.Name, uint64(at/sim.Microsecond), d.Syntax()))
		}
	}
	runner.Close()
	body := `{"campaign":"budget","universe":{"kind":"inline","horizon":"80ms","scenarios":[` + strings.Join(scenarios, ",") + `]}}`
	sched, srv := newTestDaemon(t)
	round := func() {
		id := submit(t, srv.URL, body)
		waitFinal(t, sched, id, StateDone)
		resp, err := http.Get(srv.URL + "/runs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		if readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET result: HTTP %d", resp.StatusCode)
		}
	}
	round() // the runner's build, the first parse, plan and fingerprint
	const ceiling = 5.0
	per := testing.AllocsPerRun(3, round) / float64(len(scenarios))
	t.Logf("%.2f allocations per scenario over %d scenarios", per, len(scenarios))
	if per > ceiling {
		t.Errorf("%.2f allocations per scenario, ceiling %.1f", per, ceiling)
	}
}
