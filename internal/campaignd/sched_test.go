package campaignd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sim"
)

// mustSpec parses a spec literal.
func mustSpec(t testing.TB, raw string) *Spec {
	t.Helper()
	spec, err := ParseSpec([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// runToCompletion submits raw and blocks until the run's final event,
// returning the run ID.
func runToCompletion(t testing.TB, sched *Scheduler, raw string) string {
	t.Helper()
	id, err := sched.Submit(mustSpec(t, raw), []byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	waitFinal(t, sched, id, StateDone)
	return id
}

// TestSchedulerStopMidRunResumesByteIdentical is the in-process
// kill/restart leg: Stop() lands mid-campaign, the run stays pending
// with a partial journal, and a new scheduler over the same store
// resumes it to the byte-identical result an uninterrupted scheduler
// produces.
func TestSchedulerStopMidRunResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scheduler lifecycle test")
	}
	const n = 120
	raw := genInline("interrupt", n, "10s")

	// Reference result from an uninterrupted scheduler.
	refSched, err := NewScheduler(Config{DataDir: t.TempDir(), ProgressInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	refSched.Start()
	refID := runToCompletion(t, refSched, raw)
	refBytes, err := refSched.Store().ReadDoc(refID, DocResult)
	if err != nil {
		t.Fatal(err)
	}
	refSched.Stop()

	// Victim scheduler: Stop as soon as the first scenario completes.
	dir := t.TempDir()
	sched, err := NewScheduler(Config{DataDir: dir, ProgressInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	sched.Start()
	id, err := sched.Submit(mustSpec(t, raw), []byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := sched.Hub(id).subscribe()
	stopped := false
	for e := range ch {
		if e.Type == "progress" && e.Completed >= 1 && e.Completed < e.Total && !stopped {
			stopped = true
			go sched.Stop()
		}
		if e.Final {
			if !stopped {
				t.Fatalf("run finished (%q) before the test could stop it", e.State)
			}
			if e.State != "interrupted" {
				t.Fatalf("final state %q, want interrupted", e.State)
			}
			break
		}
	}
	cancel()
	sched.Stop() // idempotent; waits for the executor

	state, err := sched.Store().State(id)
	if err != nil {
		t.Fatal(err)
	}
	if state != StateQueued {
		t.Fatalf("interrupted run state = %q, want queued (pending)", state)
	}
	j, err := journal.Read(filepath.Join(dir, "runs", id, "journal"))
	if err != nil {
		t.Fatalf("interrupted run has no journal: %v", err)
	}
	if got := len(j.Entries); got < 1 || got >= n {
		t.Fatalf("journal has %d entries, want a partial 1..%d", got, n-1)
	}

	// Restart: the pending run is requeued and resumed from the
	// journal.
	revived, err := NewScheduler(Config{DataDir: dir, ProgressInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	revived.Start()
	defer revived.Stop()
	waitFinal(t, revived, id, StateDone)
	gotBytes, err := revived.Store().ReadDoc(id, DocResult)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBytes) != string(refBytes) {
		t.Errorf("resumed result differs from the uninterrupted run:\n--- resumed ---\n%s\n--- reference ---\n%s", gotBytes, refBytes)
	}

	// The journal grew to completion (every outcome, once): the resume
	// appended only the missing scenarios.
	if j, err = journal.Read(filepath.Join(dir, "runs", id, "journal")); err != nil {
		t.Fatal(err)
	}
	if got := len(j.Entries); got != n {
		t.Errorf("final journal has %d entries, want %d", got, n)
	}
}

// TestSchedulerResumeFromTruncatedJournal is the fully deterministic
// resume test: a run directory is crafted with a journal that holds
// only the first few outcomes of a completed reference run, and a
// fresh scheduler must finish the campaign, skip the recorded
// entries, and serialize the byte-identical result document. The
// crafted journal is binary, as every daemon now writes it, or JSONL at
// the journal.jsonl path an older daemon left, which resumes in place.
func TestSchedulerResumeFromTruncatedJournal(t *testing.T) {
	raw := genInline("crafted", 24, "100ms")

	refSched, err := NewScheduler(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	refSched.Start()
	refID := runToCompletion(t, refSched, raw)
	refBytes, err := refSched.Store().ReadDoc(refID, DocResult)
	if err != nil {
		t.Fatal(err)
	}
	refPath := refSched.Store().JournalPath(refID)
	ref, err := journal.Read(refPath)
	if err != nil {
		t.Fatal(err)
	}
	refSched.Stop()
	if ref.Codec != journal.Binary || filepath.Base(refPath) != "journal" {
		t.Fatalf("a daemon run journaled %s to %s, want binary to journal", ref.Codec, refPath)
	}

	// Craft an interrupted store: same spec, journal truncated to the
	// header plus the first 5 outcomes. The stored spec may also spell
	// the retired checkpoint switches, which change nothing.
	if len(ref.Entries) < 6 {
		t.Fatalf("reference journal too short: %d entries", len(ref.Entries))
	}
	recorded := ref.Entries[:5]
	legacy := strings.Replace(raw, `"campaign":"crafted"`, `"campaign":"crafted","checkpoints":true,"checkpoint_tree":true`, 1)
	for _, tc := range []struct {
		name, stored string
		codec        journal.Codec
	}{
		{"bare", raw, journal.Binary},
		{"checkpoint fields", legacy, journal.Binary},
		{"jsonl journal", raw, journal.JSONL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			id, err := store.NewRun([]byte(tc.stored))
			if err != nil {
				t.Fatal(err)
			}
			if tc.codec == journal.JSONL {
				var buf bytes.Buffer
				enc := json.NewEncoder(&buf)
				enc.Encode(ref.Header)
				for _, e := range recorded {
					enc.Encode(e)
				}
				if err := os.WriteFile(filepath.Join(store.RunDir(id), "journal.jsonl"), buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				w, err := journal.Create(store.JournalPath(id), ref.Header)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range recorded {
					if err := w.Append(e); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}

			sched, err := NewScheduler(Config{DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			sched.Start()
			defer sched.Stop()
			waitFinal(t, sched, id, StateDone)
			gotBytes, err := sched.Store().ReadDoc(id, DocResult)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotBytes) != string(refBytes) {
				t.Errorf("crafted-resume result differs from reference:\n--- resumed ---\n%s\n--- reference ---\n%s", gotBytes, refBytes)
			}

			// The metrics prove the replayed outcomes were skipped: only the
			// remaining 19 scenarios executed.
			mdata, err := sched.Store().ReadDoc(id, DocMetrics)
			if err != nil {
				t.Fatal(err)
			}
			var m struct {
				Counters map[string]uint64 `json:"counters"`
			}
			if err := json.Unmarshal(mdata, &m); err != nil {
				t.Fatalf("metrics document: %v", err)
			}
			if got := m.Counters["campaign.resumed_skips{campaign=crafted}"]; got != 5 {
				t.Errorf("resume skipped %d scenarios, want 5 (the journaled prefix)", got)
			}
			// The run completed the journal it found, in its own codec.
			j, err := journal.Read(store.JournalPath(id))
			if err != nil {
				t.Fatal(err)
			}
			if j.Codec != tc.codec || len(j.Entries) != len(ref.Entries) {
				t.Errorf("completed journal holds %d %s entries, want %d %s", len(j.Entries), j.Codec, len(ref.Entries), tc.codec)
			}
		})
	}
}

// TestSchedulerRestartRefusesAdaptiveJournalOfAnotherDigest: a daemon
// restarted over an adaptive run whose journal another state digest
// signed — one that names another digest, or a header from before
// headers named one — fails the run with the *journal.DigestError
// naming both before it simulates anything, and the same journal under
// the header the run writes now resumes to the uninterrupted run's
// bytes.
func TestSchedulerRestartRefusesAdaptiveJournalOfAnotherDigest(t *testing.T) {
	raw := `{"campaign":"ad","universe":{"horizon":"30ms","inject":"5ms"},"adaptive":true,"novelty_budget":12,"novelty_seed":3}`
	refSched, err := NewScheduler(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	refSched.Start()
	refID := runToCompletion(t, refSched, raw)
	refBytes, err := refSched.Store().ReadDoc(refID, DocResult)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := journal.Read(refSched.Store().JournalPath(refID))
	refSched.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Header.Adaptive || ref.Header.Digest != sim.Digest || len(ref.Entries) < 4 {
		t.Fatalf("reference journal: header %+v with %d entries, want an adaptive one signed %s with at least 4", ref.Header, len(ref.Entries), sim.Digest)
	}

	for name, digest := range map[string]string{"this digest": sim.Digest, "no name": "", "another digest": "other"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			id, err := store.NewRun([]byte(raw))
			if err != nil {
				t.Fatal(err)
			}
			h := ref.Header
			h.Digest = digest
			w, err := journal.Create(store.JournalPath(id), h)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ref.Entries[:3] {
				if err := w.Append(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			sched, err := NewScheduler(Config{DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			sched.Start()
			defer sched.Stop()
			if digest == sim.Digest {
				// The census line says how each proposal was answered; every
				// other byte, the unique-signature count included, is the
				// uninterrupted run's.
				waitFinal(t, sched, id, StateDone)
				got, err := sched.Store().ReadDoc(id, DocResult)
				answered := strings.NewReplacer("(12 simulated, 0 pruned, 0 resumed)", "(9 simulated, 0 pruned, 3 resumed)")
				if want := answered.Replace(string(refBytes)); err != nil || string(got) != want {
					t.Errorf("resumed result (err %v) differs from the uninterrupted run:\n%s\nwant:\n%s", err, got, want)
				}
				return
			}
			waitFinal(t, sched, id, StateFailed)
			want := (&journal.DigestError{Journal: h.SigDigest(), Want: sim.Digest}).Error()
			if msg := sched.Store().ReadRunError(id); !strings.HasSuffix(msg, want) {
				t.Errorf("run failed with %q, want the digest refusal %q", msg, want)
			}
			if j, err := journal.Read(store.JournalPath(id)); err != nil || len(j.Entries) != 3 {
				t.Errorf("refused journal changed: %v entries, err %v; want the 3 it held", len(j.Entries), err)
			}
		})
	}
}

// TestSchedulerWarmRunnerAndSessionReuse pins the cross-run
// amortization: back-to-back runs of the same prototype configuration
// share one warm runner (one build, then cache hits) — checkpoint
// sessions are per run and draw their node buffers from it — and the
// rerun's result is byte-identical.
func TestSchedulerWarmRunnerAndSessionReuse(t *testing.T) {
	sched, err := NewScheduler(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	sched.Start()
	defer sched.Stop()

	raw := `{"campaign":"warm","universe":{"kind":"caps-single-fault","horizon":"30ms"},"workers":2}`
	first := runToCompletion(t, sched, raw)
	second := runToCompletion(t, sched, raw)

	builds, hits := sched.RunnerCacheStats()
	if builds != 1 || hits != 1 {
		t.Errorf("runner cache builds=%d hits=%d, want 1 build and 1 hit", builds, hits)
	}

	// Warm reuse must not perturb results: both runs byte-identical
	// modulo the run ID.
	b1, err := sched.Store().ReadDoc(first, DocResult)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := sched.Store().ReadDoc(second, DocResult)
	if err != nil {
		t.Fatal(err)
	}
	s1 := strings.ReplaceAll(string(b1), `"id":"`+first+`"`, `"id":"r"`)
	s2 := strings.ReplaceAll(string(b2), `"id":"`+second+`"`, `"id":"r"`)
	if s1 != s2 {
		t.Error("warm-runner rerun produced a different result document")
	}
}

// TestSchedulerTreeEarlyExitResultIdentical is the daemon surface of
// the engine's byte-identity promise: over an inline universe of
// transients and a permanent fault, a spec with and one without the
// retired early_exit switch each store the result document (modulo run
// ID) of the rebuild oracle — the same campaign rebuilding the prototype
// for every scenario — and the spec without it still early-exits the
// transients that re-converge.
func TestSchedulerTreeEarlyExitResultIdentical(t *testing.T) {
	sched, err := NewScheduler(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	sched.Start()
	defer sched.Stop()

	base := `"campaign":"ee","universe":{"kind":"inline","horizon":"30ms","scenarios":[` +
		`{"id":"open","faults":"open @caps.accel0.harness from 5ms for 2ms"},` +
		`{"id":"omit","faults":"omission @caps.can.bus from 5ms for 2ms"},` +
		`{"id":"stuck","faults":"stuck-at-1 @caps.accel0.harness from 5ms"}]}`
	want := rebuildDoc(t, `{`+base+`}`)
	for _, raw := range []string{`{` + base + `}`, `{` + base + `,"early_exit":true,"hash_stride":"5ms"}`} {
		id := runToCompletion(t, sched, raw)
		if got := storedDoc(t, sched, id); got != want {
			t.Errorf("%s stored a result the rebuild oracle does not produce\ngot:  %s\nwant: %s", raw, got, want)
		}
		mdata, err := sched.Store().ReadDoc(id, DocMetrics)
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Counters map[string]uint64 `json:"counters"`
		}
		if err := json.Unmarshal(mdata, &m); err != nil {
			t.Fatalf("metrics document: %v", err)
		}
		if m.Counters["campaign.early_exits{campaign=ee}"] == 0 {
			t.Errorf("%s: no run early-exited: %v", raw, m.Counters)
		}
	}
}

// TestRunnerCacheHitAllocs pins the allocation cost of the warm-path
// cache lookup: a hit must stay a map probe plus the key formatting,
// not a rebuild.
func TestRunnerCacheHitAllocs(t *testing.T) {
	spec := mustSpec(t, tinySpec)
	cache := newRunnerCache(2, obs.NewRegistry())
	if _, err := cache.get(spec); err != nil {
		t.Fatal(err)
	}
	defer cache.drain()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := cache.get(spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("runner cache hit allocates %.0f times per lookup, want <= 8", allocs)
	}
}

// TestSchedulerAdaptiveRun drives an adaptive spec through the daemon:
// the run completes, its result doc carries every delivered proposal,
// and resubmitting the identical spec (same seed) on a warm runner
// reproduces the identical outcome stream — the daemon-level face of
// the adaptive determinism contract. It runs through the one engine, so
// it also has a fixed-universe run's telemetry: progress events on the
// hub, flight marks, the live completed counter, per-worker busy time
// and the utilization gauge, a trace, and the per-scenario budget.
func TestSchedulerAdaptiveRun(t *testing.T) {
	raw := `{"campaign":"ad","universe":{"horizon":"30ms","inject":"5ms"},"adaptive":true,"novelty_budget":16,"novelty_seed":3,"workers":-1,"scenario_timeout":"1m","trace":true}`
	sched, err := NewScheduler(Config{DataDir: t.TempDir(), ProgressInterval: -1, SlowScenario: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe before the executor starts, so no event can be missed.
	id1, err := sched.Submit(mustSpec(t, raw), []byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := sched.Hub(id1).subscribe()
	defer cancel()
	sched.Start()
	defer sched.Stop()
	progress := 0
	for e := range events {
		if e.Type == "progress" {
			progress++
			if e.Total != 16 || e.Completed > e.Total {
				t.Fatalf("progress event %+v, want a share of the 16-run budget", e)
			}
		}
		if e.Final && e.State != StateDone {
			t.Fatalf("adaptive run finished %q: %s", e.State, e.Error)
		}
	}
	if progress < 16 {
		t.Errorf("adaptive run published %d progress events on an unthrottled hub, want one per simulated run", progress)
	}
	id2 := runToCompletion(t, sched, raw)

	var docs [2]ResultDoc
	for i, id := range []string{id1, id2} {
		b, err := sched.Store().ReadDoc(id, DocResult)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if docs[0].Scenarios < 16 || len(docs[0].Outcomes) != docs[0].Scenarios {
		t.Fatalf("adaptive run delivered %d/%d proposals, want at least the 16 simulated", docs[0].Scenarios, len(docs[0].Outcomes))
	}
	if !strings.Contains(docs[0].Text, "(16 simulated, ") || !strings.Contains(docs[0].Text, "outcome signatures") {
		t.Errorf("text result lacks the adaptive census:\n%s", docs[0].Text)
	}
	docs[1].ID = docs[0].ID
	docs[1].Text = strings.Replace(docs[1].Text, id2, id1, 1)
	if !reflect.DeepEqual(docs[0], docs[1]) {
		t.Fatalf("identical adaptive specs diverged:\n%+v\n%+v", docs[0], docs[1])
	}

	metrics, err := sched.Store().ReadDoc(id1, DocMetrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"campaign.completed{campaign=ad}", "campaign.worker_busy_ns{campaign=ad,worker=0}",
		"campaign.worker_utilization{campaign=ad}", "campaign.timeouts{campaign=ad}",
		"campaign.signatures_unique{campaign=ad}", "campaign.pruned_equiv{campaign=ad}",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("adaptive run's metrics lack %s", want)
		}
	}
	if tr, err := sched.Store().ReadDoc(id1, DocTrace); err != nil || !strings.Contains(string(tr), `"cat":"campaign"`) {
		t.Errorf("adaptive run with \"trace\": true stored no campaign spans (err %v)", err)
	}
	slow := 0
	for _, ev := range sched.Flight().Snapshot() {
		if ev.Kind == "scenario.slow" && ev.Run == "ad" {
			slow++
		}
	}
	if slow < 16 {
		t.Errorf("flight recorder holds %d scenario.slow marks for the adaptive run, want one per simulated run", slow)
	}
}

// TestSpecAdaptiveRefusals: what an adaptive run cannot compose with is
// an HTTP 400 naming the knob at submit time — before a run is queued,
// never a silent no-op — and it is the set stressor.Campaign refuses
// next to a Source, plus an explicit dedup. What the shared run shell
// serves (scenario_timeout, trace, workers) is accepted, and so are the
// retired early_exit and checkpoint switches, which no longer select
// anything.
func TestSpecAdaptiveRefusals(t *testing.T) {
	sched, srv := newTestDaemon(t)
	post := func(knobs string) (int, string) {
		resp, err := http.Post(srv.URL+"/runs", "application/json",
			strings.NewReader(`{"universe":{"horizon":"30ms"},"adaptive":true,"novelty_budget":4,`+knobs+`}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	for knob, knobs := range map[string]string{
		"shard":         `"shard":"0/2"`,
		"stop_on_first": `"stop_on_first":true`,
		"dedup":         `"dedup":true`,
	} {
		code, body := post(knobs)
		if code != http.StatusBadRequest || !strings.Contains(body, knob+" cannot be combined with adaptive") {
			t.Errorf("%s: POST = %d %s, want a 400 naming the knob", knob, code, body)
		}
	}
	if ids, err := sched.Store().List(); err != nil || len(ids) != 0 {
		t.Fatalf("refused submissions left runs behind: %v (err %v)", ids, err)
	}
	// The retired checkpoint switches and hash_stride are inert, so no
	// reason to refuse.
	if code, body := post(`"scenario_timeout":"1m","trace":true,"workers":2,"early_exit":true,"checkpoints":true,"checkpoint_tree":true,"hash_stride":"5ms"`); code != http.StatusAccepted {
		t.Errorf("scenario_timeout+trace+workers+early_exit+retired switches: POST = %d %s, want 202", code, body)
	}
}
