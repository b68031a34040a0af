package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/stressor"
)

// entryFor builds the journal entry the engine would record for
// scenario index i under testRun semantics.
func entryFor(scenarios []fault.Scenario, i int, cls fault.Classification) journal.Entry {
	return journal.Entry{Index: i, ID: scenarios[i].ID, Class: cls.String(), Detail: "ran " + scenarios[i].ID}
}

// TestLeaseExpiryHandsShardOn is the heartbeat-deadline contract: a
// worker that leases a shard, flushes part of it and goes silent loses
// the lease at the TTL; the next worker receives the same shard WITH
// the flushed entries as its resume prefix, and the dead worker's
// late flush is refused.
func TestLeaseExpiryHandsShardOn(t *testing.T) {
	scenarios := testScenarios(8)
	clock := newFakeClock()
	_, srv := startCoord(t, CoordConfig{
		Scenarios: scenarios, Shards: 2,
		LeaseTTL: 10 * time.Second, Now: clock.Now,
	})

	l1 := lease(t, srv.URL, "w1")
	if l1.Status != StatusGranted || l1.Attempt != 1 {
		t.Fatalf("first lease = %+v", l1)
	}
	recorded := []journal.Entry{
		entryFor(scenarios, l1.Shard, fault.Masked),
		entryFor(scenarios, l1.Shard+2, fault.Masked),
	}
	if code := flush(t, srv.URL, l1.Shard, flushReq{Worker: "w1", Attempt: l1.Attempt, Entries: recorded}); code != http.StatusOK {
		t.Fatalf("flush: HTTP %d", code)
	}

	// w1 goes silent; w2 takes the other shard meanwhile.
	l2 := lease(t, srv.URL, "w2")
	if l2.Status != StatusGranted || l2.Shard == l1.Shard {
		t.Fatalf("second lease = %+v", l2)
	}
	// Before the TTL, the silent lease is not up for grabs.
	if l := lease(t, srv.URL, "w3"); l.Status != StatusWait {
		t.Fatalf("pre-expiry lease = %+v", l)
	}
	clock.Advance(11 * time.Second)
	l3 := lease(t, srv.URL, "w3")
	if l3.Status != StatusGranted || l3.Shard != l1.Shard || l3.Attempt != 2 {
		t.Fatalf("post-expiry lease = %+v", l3)
	}
	if !reflect.DeepEqual(l3.Entries, recorded) {
		t.Fatalf("resume entries = %+v, want %+v", l3.Entries, recorded)
	}
	// The dead worker's flush is answered 409: its lease is gone.
	if code := flush(t, srv.URL, l1.Shard, flushReq{Worker: "w1", Attempt: l1.Attempt}); code != http.StatusConflict {
		t.Fatalf("stale flush: HTTP %d, want 409", code)
	}
}

// TestLeaseStealFromStalledHolder is the work-stealing contract: a
// holder that keeps heartbeating but records no new entries for
// StealAfter loses the shard to an idle worker, even though its lease
// never expired.
func TestLeaseStealFromStalledHolder(t *testing.T) {
	scenarios := testScenarios(4)
	clock := newFakeClock()
	_, srv := startCoord(t, CoordConfig{
		Scenarios: scenarios, Shards: 1,
		LeaseTTL: 10 * time.Second, StealAfter: 25 * time.Second, Now: clock.Now,
	})
	l1 := lease(t, srv.URL, "w1")
	if l1.Status != StatusGranted {
		t.Fatalf("lease = %+v", l1)
	}
	// Heartbeat every 5s without progress: the lease stays alive, so an
	// idle worker waits... until StealAfter elapses.
	for i := 0; i < 4; i++ {
		clock.Advance(5 * time.Second)
		if code := flush(t, srv.URL, 0, flushReq{Worker: "w1", Attempt: 1}); code != http.StatusOK {
			t.Fatalf("heartbeat %d: HTTP %d", i, code)
		}
		if i < 1 {
			if l := lease(t, srv.URL, "w2"); l.Status != StatusWait {
				t.Fatalf("heartbeat %d: idle worker got %+v", i, l)
			}
		}
	}
	// 20s elapsed, still heartbeating: not stealable yet at <25s.
	if l := lease(t, srv.URL, "w2"); l.Status != StatusWait {
		t.Fatalf("pre-steal lease = %+v", l)
	}
	clock.Advance(5 * time.Second)
	l2 := lease(t, srv.URL, "w2")
	if l2.Status != StatusGranted || l2.Shard != 0 || l2.Attempt != 2 {
		t.Fatalf("steal = %+v", l2)
	}
	// The stalled holder's next flush — even one finally carrying an
	// entry — is refused; the identical entry from the thief lands.
	e := entryFor(scenarios, 1, fault.Masked)
	if code := flush(t, srv.URL, 0, flushReq{Worker: "w1", Attempt: 1, Entries: []journal.Entry{e}}); code != http.StatusConflict {
		t.Fatalf("superseded flush: HTTP %d, want 409", code)
	}
	if code := flush(t, srv.URL, 0, flushReq{Worker: "w2", Attempt: 2, Entries: []journal.Entry{e}}); code != http.StatusOK {
		t.Fatalf("thief flush: HTTP %d", code)
	}
	// A worker's OWN slow lease is not stolen back from it on its next
	// lease request — stealing requires a different requester.
	if l := lease(t, srv.URL, "w2"); l.Status != StatusWait {
		t.Fatalf("self-steal = %+v", l)
	}
}

// TestFlushValidation pins the coordinator's entry checks: range, ID
// match against the universe, and the duplicate policy — identical
// duplicates fold silently (work-stealing makes them normal),
// conflicting duplicates are a 409 because they prove nondeterminism.
// A refused flush records nothing: a good entry in front of the bad one
// is neither journaled nor recorded, and the lease is not extended.
func TestFlushValidation(t *testing.T) {
	scenarios := testScenarios(4)
	clock := newFakeClock()
	c, srv := startCoord(t, CoordConfig{Scenarios: scenarios, Shards: 1, Now: clock.Now})
	l := lease(t, srv.URL, "w1")
	req := func(entries ...journal.Entry) flushReq {
		return flushReq{Worker: "w1", Attempt: l.Attempt, Entries: entries}
	}
	good := entryFor(scenarios, 1, fault.Masked)
	if code := flush(t, srv.URL, 0, req(good)); code != http.StatusOK {
		t.Fatalf("good entry: HTTP %d", code)
	}
	if code := flush(t, srv.URL, 0, req(good)); code != http.StatusOK {
		t.Fatalf("identical duplicate: HTTP %d", code)
	}
	conflicting := good
	conflicting.Class = fault.SDC.String()
	if code := flush(t, srv.URL, 0, req(conflicting)); code != http.StatusConflict {
		t.Fatalf("conflicting duplicate: HTTP %d, want 409", code)
	}
	if code := flush(t, srv.URL, 0, req(journal.Entry{Index: 99, ID: "s99", Class: "masked"})); code != http.StatusBadRequest {
		t.Fatalf("out-of-range index: HTTP %d, want 400", code)
	}
	if code := flush(t, srv.URL, 0, req(journal.Entry{Index: 2, ID: "wrong", Class: "masked"})); code != http.StatusBadRequest {
		t.Fatalf("ID mismatch: HTTP %d, want 400", code)
	}
	if code := flush(t, srv.URL, 9, req()); code != http.StatusBadRequest {
		t.Fatalf("bad shard: HTTP %d, want 400", code)
	}

	fresh := entryFor(scenarios, 0, fault.Masked)
	refused := refusedFlush(t, c, srv.URL, clock)
	refused("good, then out-of-range index", http.StatusBadRequest, req(fresh, journal.Entry{Index: 99, ID: "s99", Class: "masked"}))
	refused("good, then ID mismatch", http.StatusBadRequest, req(fresh, journal.Entry{Index: 2, ID: "wrong", Class: "masked"}))
	refused("good, then conflicting duplicate", http.StatusConflict, req(fresh, conflicting))
	refused("one index twice, disagreeing", http.StatusConflict, req(fresh, entryFor(scenarios, 0, fault.SDC)))
	// A done flush seals the shard only once it holds every run it owns:
	// 2 or 3 of 4 is a 409 that records nothing, and the lease stays.
	done := func(entries ...journal.Entry) flushReq {
		r := req(entries...)
		r.Done = true
		return r
	}
	refused("done, one short", http.StatusConflict, done(fresh, entryFor(scenarios, 2, fault.Masked)))
	refused("done, repeats only", http.StatusConflict, done(good, good))
	refused("done, short and failed", http.StatusConflict, done(fresh, entryFor(scenarios, 2, fault.SDC)))
	if code := flush(t, srv.URL, 0, req(fresh)); code != http.StatusOK {
		t.Fatalf("after a refused done, the lease's next flush: HTTP %d", code)
	}
	final := done(good, entryFor(scenarios, 2, fault.Masked), entryFor(scenarios, 3, fault.Masked))
	if code := flush(t, srv.URL, 0, final); code != http.StatusOK {
		t.Fatalf("final flush: HTTP %d", code)
	}
	refused("sealed: held, then conflicting", http.StatusConflict, req(fresh, entryFor(scenarios, 3, fault.SDC)))

	// Under StopOnFirst a shard that holds every position up to a failure
	// stops early; one that skipped a position below its failure, or
	// recorded none, is still held to every run it owns. Nothing new
	// lands on the sealed shard.
	sc, ssrv := startCoord(t, CoordConfig{Scenarios: scenarios, Shards: 1, StopOnFirst: true, Now: clock.Now})
	sl := lease(t, ssrv.URL, "w1")
	sreq := func(done bool, entries ...journal.Entry) flushReq {
		return flushReq{Worker: "w1", Attempt: sl.Attempt, Entries: entries, Done: done}
	}
	srefused := refusedFlush(t, sc, ssrv.URL, clock)
	srefused("stop-on-first, done without a failure", http.StatusConflict, sreq(true, fresh))
	srefused("stop-on-first, done at a failure past a hole", http.StatusConflict, sreq(true, fresh, entryFor(scenarios, 2, fault.SDC)))
	if code := flush(t, ssrv.URL, 0, sreq(true, fresh, entryFor(scenarios, 1, fault.SDC))); code != http.StatusOK {
		t.Fatalf("stop-on-first, done at the first failure: HTTP %d", code)
	}
	srefused("stop-on-first sealed: held, then new", http.StatusConflict, sreq(false, fresh, entryFor(scenarios, 2, fault.Masked)))
}

// refusedFlush returns a check that a flush of shard 0 of c, served at
// url, answers code and leaves the shard as it was: nothing recorded or
// appended, the lease not extended (clock moves a second first).
func refusedFlush(t *testing.T, c *Coordinator, url string, clock *fakeClock) func(name string, code int, r flushReq) {
	type state struct {
		recorded, appended int
		deadline           time.Time
		sealed             bool
	}
	shard := func() state {
		c.mu.Lock()
		defer c.mu.Unlock()
		s := c.shards[0]
		st := state{recorded: c.set.Recorded(0), deadline: s.deadline, sealed: s.state == "done"}
		if s.w != nil {
			st.appended = s.w.Appends()
		}
		return st
	}
	return func(name string, code int, r flushReq) {
		t.Helper()
		clock.Advance(time.Second)
		before := shard()
		if got := flush(t, url, 0, r); got != code {
			t.Fatalf("%s: HTTP %d, want %d", name, got, code)
		}
		if after := shard(); after != before {
			t.Errorf("%s: a refused flush changed the shard: %+v, was %+v", name, after, before)
		}
	}
}

// TestFlushBodyMustDecodeWhole: a flush body is journal entry frames and
// nothing else. A frame cut short, one whose CRC fails, a frame that is
// not an entry or an unreadable attempt is a 400, and nothing of that
// body — the good frames before the damage included — is recorded.
func TestFlushBodyMustDecodeWhole(t *testing.T) {
	scenarios := testScenarios(4)
	c, srv := startCoord(t, CoordConfig{Scenarios: scenarios, Shards: 1})
	l := lease(t, srv.URL, "w1")
	post := func(url string, body []byte) int {
		t.Helper()
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	url := flushURL(srv.URL, 0, flushReq{Worker: "w1", Attempt: l.Attempt})
	good := journal.AppendEntryFrame(nil, entryFor(scenarios, 0, fault.Masked))
	second := journal.AppendEntryFrame(nil, entryFor(scenarios, 1, fault.Masked))
	badCRC := append([]byte(nil), second...)
	badCRC[len(badCRC)-1] ^= 0xff
	flipped := append([]byte(nil), second...)
	flipped[6] ^= 0x01 // a payload byte: the CRC no longer matches
	header, err := os.ReadFile(filepath.Join(c.cfg.DataDir, "shard-0.journal"))
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"torn":         append(append([]byte(nil), good...), second[:len(second)-3]...),
		"bad CRC":      append(append([]byte(nil), good...), badCRC...),
		"flipped bit":  append(append([]byte(nil), flipped...), good...),
		"header frame": append(append([]byte(nil), good...), header[8:]...), // a journal's 'H' frame
		"json":         []byte(`{"worker":"w1","attempt":1,"entries":[]}`),
	} {
		if code := post(url, body); code != http.StatusBadRequest {
			t.Fatalf("%s body: HTTP %d, want 400", name, code)
		}
	}
	if code := post(strings.Replace(url, "attempt=1", "attempt=one", 1), good); code != http.StatusBadRequest {
		t.Fatalf("unreadable attempt: HTTP %d, want 400", code)
	}
	c.mu.Lock()
	recorded, appended := c.set.Recorded(0), c.shards[0].w.Appends()
	c.mu.Unlock()
	if recorded != 0 || appended != 0 {
		t.Fatalf("%d entries recorded, %d appended from refused bodies", recorded, appended)
	}
	var whole []byte
	for i := range scenarios {
		whole = journal.AppendEntryFrame(whole, entryFor(scenarios, i, fault.Masked))
	}
	if code := post(url+"&done=1", whole); code != http.StatusOK {
		t.Fatalf("whole body: HTTP %d", code)
	}
}

// TestSealedShardAnswersRepeatsOnly: the flush that completes a shard
// closes and syncs its journal — a binary one — there and then. The same
// flush delivered again is acknowledged from memory; an entry the shard
// does not hold is refused; neither touches the closed writer, and the
// journal on disk is complete before the campaign is.
func TestSealedShardAnswersRepeatsOnly(t *testing.T) {
	scenarios := testScenarios(6)
	c, srv := startCoord(t, CoordConfig{Scenarios: scenarios, Shards: 2})
	l := lease(t, srv.URL, "w1")
	final := flushReq{Worker: "w1", Attempt: l.Attempt, Done: true}
	for i := l.Shard; i < len(scenarios); i += 2 {
		final.Entries = append(final.Entries, entryFor(scenarios, i, fault.Masked))
	}
	if code := flush(t, srv.URL, l.Shard, final); code != http.StatusOK {
		t.Fatalf("final flush: HTTP %d", code)
	}
	sealed := func() []journal.Entry {
		t.Helper()
		j, err := journal.Read(filepath.Join(c.cfg.DataDir, fmt.Sprintf("shard-%d.journal", l.Shard)))
		if err != nil {
			t.Fatal(err)
		}
		if j.Truncated || j.Codec != journal.Binary {
			t.Fatalf("sealed journal: truncated %v, codec %s; want a whole binary journal", j.Truncated, j.Codec)
		}
		return j.Entries
	}
	if got := sealed(); !reflect.DeepEqual(got, final.Entries) {
		t.Fatalf("journal of the completed shard holds %v, want %v", got, final.Entries)
	}
	if code := flush(t, srv.URL, l.Shard, final); code != http.StatusOK {
		t.Fatalf("final flush delivered twice: HTTP %d", code)
	}
	late := flushReq{Worker: "w1", Attempt: l.Attempt, Entries: []journal.Entry{entryFor(scenarios, 1-l.Shard, fault.Masked)}}
	if code := flush(t, srv.URL, l.Shard, late); code != http.StatusConflict {
		t.Fatalf("new entry for a completed shard: HTTP %d, want 409", code)
	}
	if got := sealed(); !reflect.DeepEqual(got, final.Entries) {
		t.Fatalf("journal changed after the shard completed: %v", got)
	}
	if _, done, _ := c.Result(); done {
		t.Fatal("campaign finalized with a shard outstanding")
	}
	// The other shard completes the campaign; the merge reads both.
	l2 := lease(t, srv.URL, "w2")
	rest := flushReq{Worker: "w2", Attempt: l2.Attempt, Done: true}
	for i := l2.Shard; i < len(scenarios); i += 2 {
		rest.Entries = append(rest.Entries, entryFor(scenarios, i, fault.Masked))
	}
	if code := flush(t, srv.URL, l2.Shard, rest); code != http.StatusOK {
		t.Fatalf("second shard's final flush: HTTP %d", code)
	}
	res, done, err := c.Result()
	if err != nil || !done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	if want := sequentialBaseline(t, "fab", scenarios, testRun(nil), false, false); !reflect.DeepEqual(res, want) {
		t.Fatalf("merged result differs from sequential:\n%+v\n%+v", res, want)
	}
}

// TestCoordinatorRestartResume kills the coordinator (not the workers)
// mid-campaign: a new coordinator over the same data directory adopts
// the shard journals and the campaign finishes from where it stood,
// producing the sequential result.
func TestCoordinatorRestartResume(t *testing.T) {
	scenarios := testScenarios(9)
	run := testRun(map[int]fault.Classification{4: fault.SDC})
	dir := t.TempDir()
	clock := newFakeClock()

	c1, srv1 := startCoord(t, CoordConfig{
		Scenarios: scenarios, Shards: 3, DataDir: dir, Now: clock.Now,
	})
	// Complete shard 0 fully; flush half of shard 1; leave shard 2
	// untouched. Then "crash" the coordinator.
	l0 := lease(t, srv1.URL, "w1")
	for _, i := range []int{0, 3, 6} {
		if code := flush(t, srv1.URL, l0.Shard, flushReq{Worker: "w1", Attempt: l0.Attempt, Entries: []journal.Entry{entryFor(scenarios, i, fault.Masked)}}); code != http.StatusOK {
			t.Fatalf("flush %d: HTTP %d", i, code)
		}
	}
	if code := flush(t, srv1.URL, l0.Shard, flushReq{Worker: "w1", Attempt: l0.Attempt, Done: true}); code != http.StatusOK {
		t.Fatal("done flush failed")
	}
	l1 := lease(t, srv1.URL, "w1")
	if l1.Shard != 1 {
		t.Fatalf("second lease shard = %d", l1.Shard)
	}
	if code := flush(t, srv1.URL, 1, flushReq{Worker: "w1", Attempt: l1.Attempt, Entries: []journal.Entry{entryFor(scenarios, 4, fault.SDC)}}); code != http.StatusOK {
		t.Fatal("partial flush failed")
	}
	srv1.Close()
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// The new coordinator sees shard 0 complete, shard 1 half-recorded.
	c2, srv2 := startCoord(t, CoordConfig{
		Scenarios: scenarios, Shards: 3, DataDir: dir, Now: clock.Now,
	})
	l := lease(t, srv2.URL, "w2")
	if l.Status != StatusGranted || l.Shard != 1 {
		t.Fatalf("post-restart lease = %+v", l)
	}
	if len(l.Entries) != 1 || l.Entries[0].Index != 4 {
		t.Fatalf("post-restart resume entries = %+v", l.Entries)
	}
	// Finish shards 1 and 2 and compare against the sequential run.
	for _, i := range []int{1, 7} {
		flush(t, srv2.URL, 1, flushReq{Worker: "w2", Attempt: l.Attempt, Entries: []journal.Entry{entryFor(scenarios, i, fault.Masked)}})
	}
	flush(t, srv2.URL, 1, flushReq{Worker: "w2", Attempt: l.Attempt, Done: true})
	l = lease(t, srv2.URL, "w2")
	if l.Shard != 2 {
		t.Fatalf("final lease = %+v", l)
	}
	for _, i := range []int{2, 5, 8} {
		flush(t, srv2.URL, 2, flushReq{Worker: "w2", Attempt: l.Attempt, Entries: []journal.Entry{entryFor(scenarios, i, fault.Masked)}})
	}
	flush(t, srv2.URL, 2, flushReq{Worker: "w2", Attempt: l.Attempt, Done: true})

	res, done, err := c2.Result()
	if err != nil || !done {
		t.Fatalf("Result: done=%v err=%v", done, err)
	}
	want, err := (&stressor.Campaign{Name: "fab", Run: run}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("merged result differs from sequential:\n%+v\n%+v", res, want)
	}
	if l := lease(t, srv2.URL, "w2"); l.Status != StatusDone {
		t.Fatalf("lease after completion = %+v", l)
	}
}

// TestStatusDoc sanity-checks the progress surface.
func TestStatusDoc(t *testing.T) {
	scenarios := testScenarios(6)
	clock := newFakeClock()
	_, srv := startCoord(t, CoordConfig{Scenarios: scenarios, Shards: 2, Now: clock.Now})
	l := lease(t, srv.URL, "w1")
	flush(t, srv.URL, l.Shard, flushReq{Worker: "w1", Attempt: l.Attempt, Entries: []journal.Entry{entryFor(scenarios, l.Shard, fault.Masked)}})
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc StatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Total != 6 || doc.Completed != 1 || doc.Done || len(doc.Shards) != 2 {
		t.Fatalf("status = %+v", doc)
	}
	if doc.Shards[l.Shard].State != "leased" || doc.Shards[l.Shard].Worker != "w1" || doc.Shards[l.Shard].Owned != 3 {
		t.Fatalf("shard status = %+v", doc.Shards[l.Shard])
	}
	if len(doc.Workers) != 1 || doc.Workers[0] != "w1" {
		t.Fatalf("workers = %v", doc.Workers)
	}
	// /result is a 404 while running.
	if resp, _ := http.Get(srv.URL + "/result"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/result mid-campaign: HTTP %d", resp.StatusCode)
	}
}

// TestDismissedWaitsForEveryWorker: Done closes when the campaign has
// merged, Dismissed only once every worker the coordinator knows of —
// registered, or seen asking for a lease — has been answered with
// campaign-done: on the flush that completed the campaign, or on its
// next lease request. A one-shot coordinator leaves on Dismissed, so a
// worker that registered never comes back to a closed port.
func TestDismissedWaitsForEveryWorker(t *testing.T) {
	scenarios := testScenarios(2)
	c, srv := startCoord(t, CoordConfig{Scenarios: scenarios, Shards: 1})
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	for _, w := range []string{"fast", "late"} {
		if code, body := postJSON(t, srv.URL+"/workers", RegisterRequest{Worker: w}); code != http.StatusOK {
			t.Fatalf("register %s: HTTP %d: %s", w, code, body)
		}
	}
	l := lease(t, srv.URL, "fast")
	if l.Status != StatusGranted {
		t.Fatalf("lease = %+v", l)
	}
	done := flushReq{Worker: "fast", Attempt: l.Attempt, Done: true, Entries: []journal.Entry{
		entryFor(scenarios, 0, fault.Masked), entryFor(scenarios, 1, fault.Masked),
	}}
	if code := flush(t, srv.URL, l.Shard, done); code != http.StatusOK {
		t.Fatalf("final flush: HTTP %d", code)
	}
	if !closed(c.Done()) {
		t.Fatal("campaign not done after its only shard's final flush")
	}
	if closed(c.Dismissed()) {
		t.Fatal("dismissed while a registered worker has not heard the campaign is done")
	}
	// A worker nobody announced counts from its first lease request on,
	// and is told in the same breath.
	if l := lease(t, srv.URL, "stranger"); l.Status != StatusDone {
		t.Fatalf("stranger's lease = %+v", l)
	}
	if closed(c.Dismissed()) {
		t.Fatal("dismissed by a stranger's lease request")
	}
	if l := lease(t, srv.URL, "late"); l.Status != StatusDone {
		t.Fatalf("late worker's lease = %+v", l)
	}
	if !closed(c.Dismissed()) {
		t.Fatal("not dismissed after every worker was answered done")
	}
}
