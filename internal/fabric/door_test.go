package fabric

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/stressor"
)

// doorUniverse is the bad-flush table's universe: eight scenarios whose
// fault content repeats every four, so Dedup folds s4..s7 into s0..s3.
// Without Dedup shard 0 of 2 owns s0..s3; with it, s0 and s1.
func doorUniverse() []fault.Scenario {
	scs := testScenarios(8)
	for i := 4; i < 8; i++ {
		scs[i].Faults = scs[i-4].Faults
	}
	return scs
}

// doorCase is one bad flush to shard 0 of a two-shard coordinator:
// what shard 0 recorded before it (sealed: and was completed with), the
// entries of the refused body and the status the door answers. A case
// Campaign.Resume can also produce — a resume journal holding prior and
// then body — is refused there with the error the door's body carries.
type doorCase struct {
	name   string
	dedup  bool
	prior  []journal.Entry
	sealed bool
	body   []journal.Entry
	code   int
	resume bool
}

func doorCases() []doorCase {
	u := doorUniverse()
	e := func(i int, cls fault.Classification) journal.Entry { return entryFor(u, i, cls) }
	good := e(0, fault.Masked)
	with := func(i int, mutate func(*journal.Entry)) journal.Entry {
		ent := e(i, fault.Masked)
		mutate(&ent)
		return ent
	}
	return []doorCase{
		{name: "wrong scenario ID", body: []journal.Entry{good, with(2, func(e *journal.Entry) { e.ID = "wrong" })}, code: http.StatusBadRequest, resume: true},
		{name: "index out of range", body: []journal.Entry{good, {Index: 99, ID: "s99", Class: "masked"}}, code: http.StatusBadRequest, resume: true},
		{name: "unknown class", body: []journal.Entry{good, with(1, func(e *journal.Entry) { e.Class = "bogus" })}, code: http.StatusBadRequest, resume: true},
		{name: "empty class", body: []journal.Entry{good, with(1, func(e *journal.Entry) { e.Class = "" })}, code: http.StatusBadRequest, resume: true},
		{name: "not a dedup representative", dedup: true, body: []journal.Entry{good, e(5, fault.Masked)}, code: http.StatusBadRequest, resume: true},
		{name: "conflicting duplicate within the body", body: []journal.Entry{good, e(0, fault.SDC)}, code: http.StatusConflict, resume: true},
		{name: "conflicting duplicate of a recorded entry", prior: []journal.Entry{e(1, fault.Masked)}, body: []journal.Entry{good, e(1, fault.SDC)}, code: http.StatusConflict, resume: true},
		{name: "new entry for a sealed shard", prior: []journal.Entry{e(0, fault.Masked), e(1, fault.Masked), e(2, fault.Masked), e(3, fault.Masked)}, sealed: true, body: []journal.Entry{good, e(4, fault.Masked)}, code: http.StatusConflict},
	}
}

// TestFlushRefusedAsResumeRefuses is the door's table: every bad flush
// is refused whole — nothing recorded, appended or extended — with the
// status its kind maps to, and where resume would meet the same entries
// the door's error is resume's, word for word: both are the shard set's.
func TestFlushRefusedAsResumeRefuses(t *testing.T) {
	u := doorUniverse()
	for _, tc := range doorCases() {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			c, srv := startCoord(t, CoordConfig{Scenarios: u, Shards: 2, Dedup: tc.dedup, Now: clock.Now})
			l := lease(t, srv.URL, "w1")
			if l.Shard != 0 {
				t.Fatalf("lease = %+v", l)
			}
			if tc.prior != nil {
				if code := flush(t, srv.URL, 0, flushReq{Worker: "w1", Attempt: l.Attempt, Entries: tc.prior, Done: tc.sealed}); code != http.StatusOK {
					t.Fatalf("prior flush: HTTP %d", code)
				}
			}
			type state struct {
				recorded, appended int
				deadline           time.Time
			}
			shard := func() state {
				c.mu.Lock()
				defer c.mu.Unlock()
				s := c.shards[0]
				st := state{recorded: c.set.Recorded(0), deadline: s.deadline}
				if s.w != nil {
					st.appended = s.w.Appends()
				}
				return st
			}
			clock.Advance(time.Second)
			before := shard()
			code, msg := flushBody(t, srv.URL, flushReq{Worker: "w1", Attempt: l.Attempt, Entries: tc.body})
			if code != tc.code {
				t.Fatalf("HTTP %d (%s), want %d", code, msg, tc.code)
			}
			if after := shard(); after != before {
				t.Errorf("a refused flush changed the shard: %+v, was %+v", after, before)
			}
			if !tc.resume {
				return
			}
			sh := stressor.Shard{Index: 0, Count: 2}
			resume := &journal.Journal{
				Header:  sh.JournalHeader("fab", len(u), stressor.UniverseHash(u)),
				Entries: append(append([]journal.Entry(nil), tc.prior...), tc.body...),
			}
			_, err := (&stressor.Campaign{Name: "fab", Run: testRun(nil), Dedup: tc.dedup, Shard: sh, Resume: resume}).Execute(u)
			if err == nil {
				t.Fatal("resume accepted the entries the door refused")
			}
			if !strings.Contains(msg, err.Error()) {
				t.Fatalf("door answered %q, resume refused with %q", msg, err)
			}
		})
	}
}

// flushBody posts req to shard 0 and returns the status and the error
// the body carries.
func flushBody(t *testing.T, base string, req flushReq) (int, string) {
	t.Helper()
	var body []byte
	for _, e := range req.Entries {
		body = journal.AppendEntryFrame(body, e)
	}
	resp, err := http.Post(flushURL(base, 0, req), "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc errorDoc
	json.NewDecoder(resp.Body).Decode(&doc)
	return resp.StatusCode, doc.Error
}

// TestRestartRefusesWhatMergeRefuses: a coordinator adopts the shard
// journals it finds through the same shard set, so one holding an entry
// Merge would refuse stops start-up with resume's error for that entry,
// naming the shard, instead of being served until the final merge fails.
func TestRestartRefusesWhatMergeRefuses(t *testing.T) {
	u := doorUniverse()
	for _, tc := range []struct {
		name  string
		dedup bool
		entry journal.Entry
	}{
		{"unknown class", false, journal.Entry{Index: 1, ID: "s1", Class: "bogus"}},
		{"not a dedup representative", true, entryFor(u, 5, fault.Masked)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			h := stressor.Shard{Index: 1, Count: 2}.JournalHeader("fab", len(u), stressor.UniverseHash(u))
			w, err := journal.Create(filepath.Join(dir, "shard-1.journal"), h)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(tc.entry); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			resume := &journal.Journal{Header: h, Entries: []journal.Entry{tc.entry}}
			_, want := (&stressor.Campaign{Name: "fab", Run: testRun(nil), Dedup: tc.dedup, Shard: stressor.Shard{Index: 1, Count: 2}, Resume: resume}).Execute(u)
			if want == nil {
				t.Fatal("resume accepted the entry")
			}
			c, err := NewCoordinator(CoordConfig{Campaign: "fab", Scenarios: u, Shards: 2, Dedup: tc.dedup, DataDir: dir})
			if err == nil {
				c.Close()
				t.Fatal("the coordinator adopted the journal")
			}
			if !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), want.Error()) {
				t.Fatalf("start-up failed with %q, want the shard and %q", err, want)
			}
		})
	}
}

// TestRequestBodiesDecodeStrictly: POST /workers and POST /leases take
// one JSON value with no field the request type lacks and nothing after
// it; anything else is a 400 naming the decoder's complaint.
func TestRequestBodiesDecodeStrictly(t *testing.T) {
	_, srv := startCoord(t, CoordConfig{Scenarios: testScenarios(2), Shards: 1})
	for _, path := range []string{"/workers", "/leases"} {
		for _, tc := range []struct {
			body string
			code int
		}{
			{`{"worker":"w1","wroker":"x"}`, http.StatusBadRequest},
			{`{"worker":"w1"} garbage`, http.StatusBadRequest},
			{`{"worker":"w1"}{"worker":"w2"}`, http.StatusBadRequest},
			{`{"worker":"w1"}` + "\n", http.StatusOK},
		} {
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var doc errorDoc
			json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Fatalf("POST %s %s: HTTP %d (%s), want %d", path, tc.body, resp.StatusCode, doc.Error, tc.code)
			}
			if tc.code == http.StatusBadRequest && !strings.HasPrefix(doc.Error, "bad request body: ") {
				t.Fatalf("POST %s %s: error %q, want the decoder's", path, tc.body, doc.Error)
			}
		}
	}
}

// TestFlushAcknowledgesOnlyWhatIsOnDisk: before the shard completes,
// every entry a 200 flush answer counts as Recorded is already in the
// shard's journal file — the file grant hands the lease's next holder
// as its resume prefix, which the thief of a stalled lease receives.
func TestFlushAcknowledgesOnlyWhatIsOnDisk(t *testing.T) {
	u := testScenarios(6)
	clock := newFakeClock()
	c, srv := startCoord(t, CoordConfig{Scenarios: u, Shards: 1, Now: clock.Now})
	l := lease(t, srv.URL, "w1")
	recorded := 0
	// One entry, two, a duplicate beside a new one, a heartbeat.
	for _, batch := range [][]int{{0}, {1, 2}, {2, 3}, {}} {
		req := flushReq{Worker: "w1", Attempt: l.Attempt}
		for _, i := range batch {
			req.Entries = append(req.Entries, entryFor(u, i, fault.Masked))
		}
		var body []byte
		for _, e := range req.Entries {
			body = journal.AppendEntryFrame(body, e)
		}
		resp, err := http.Post(flushURL(srv.URL, 0, req), "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ack FlushResponse
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("flush %v: HTTP %d, %v", batch, resp.StatusCode, err)
		}
		j, err := journal.Read(c.journalPath(0))
		if err != nil {
			t.Fatal(err)
		}
		if len(j.Entries) != ack.Recorded {
			t.Fatalf("flush %v answered %d recorded, the journal file holds %d entries", batch, ack.Recorded, len(j.Entries))
		}
		recorded = ack.Recorded
	}
	clock.Advance(3 * c.cfg.LeaseTTL)
	if l2 := lease(t, srv.URL, "w2"); l2.Status != StatusGranted || len(l2.Entries) != recorded {
		t.Fatalf("the next holder got %+v with %d entries, want the %d recorded", l2.Lease, len(l2.Entries), recorded)
	}
}
