package caps

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// TestSiblingConvergence is the non-vacuity guard of sibling convergence
// (DESIGN §14): on a permanent sweep, whose runs never re-join golden,
// and on a transient universe, runs must stop at states an earlier run of
// their campaign passed — campaign.sibling_exits above zero — and every
// result must equal the ReuseOff oracle's, outcome for outcome, at one
// and at four workers, as two shards merged, and resumed from a journal
// cut mid-frame; and signed, proposed by a Source, the signatures must
// equal the oracle's too.
func TestSiblingConvergence(t *testing.T) {
	naive, err := NewRunner(Protected(), NormalDriving(), sim.MS(80))
	if err != nil {
		t.Fatal(err)
	}
	defer naive.Close()
	naive.ReuseOff = true
	perm := permanentSweep(naive, sim.MS(5), sim.MS(15), sim.MS(25), sim.MS(45), sim.MS(65))
	var transient []fault.Scenario
	for _, at := range []sim.Time{sim.MS(5), sim.MS(25), sim.MS(45)} {
		for _, d := range withTransients(naive.Universe(at)) {
			if d.Class == fault.Transient {
				d.Name += fmt.Sprintf("@%v", at)
				transient = append(transient, fault.Single(d))
			}
		}
	}
	for _, u := range []struct {
		name      string
		scenarios []fault.Scenario
	}{{"permanent", perm}, {"transient", transient}} {
		t.Run(u.name, func(t *testing.T) {
			want, err := (&stressor.Campaign{Name: "sib", Checkpointer: naive}).Execute(u.scenarios)
			if err != nil {
				t.Fatal(err)
			}
			src := listSource(u.scenarios)
			signed, err := (&stressor.Campaign{Name: "sib", Checkpointer: naive, Source: &src, MaxRuns: len(u.scenarios)}).Execute(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					r, err := NewRunner(Protected(), NormalDriving(), sim.MS(80))
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					checkSiblings(t, r, u.scenarios, workers, want)
					reg := obs.NewRegistry()
					src := listSource(u.scenarios)
					got, err := (&stressor.Campaign{Name: "sib", Checkpointer: r, Workers: workers, Metrics: reg, Source: &src, MaxRuns: len(u.scenarios)}).Execute(nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Outcomes, signed.Outcomes) {
						t.Errorf("signed campaign diverges from the ReuseOff oracle:\ngot:  %+v\nwant: %+v", got.Outcomes, signed.Outcomes)
					}
					if reg.Counter("campaign.sibling_exits", obs.L("campaign", "sib")).Value() == 0 {
						t.Error("no signed run joined a sibling's trajectory: the signature check would be vacuous")
					}
				})
			}
		})
	}
}

// checkSiblings runs scenarios on r whole, as two shards merged, and
// resumed from a cut journal, each against want, and wants sibling exits
// in the whole campaign.
func checkSiblings(t *testing.T, r *Runner, scenarios []fault.Scenario, workers int, want *stressor.Result) {
	t.Helper()
	reg := obs.NewRegistry()
	campaign := func(sh stressor.Shard) *stressor.Campaign {
		return &stressor.Campaign{Name: "sib", Checkpointer: r, Workers: workers, Shard: sh, Metrics: reg}
	}
	res, err := campaign(stressor.Shard{}).Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Outcomes, want.Outcomes) {
		t.Errorf("whole campaign diverges from the ReuseOff oracle:\ngot:  %+v\nwant: %+v", res.Outcomes, want.Outcomes)
	}
	l := obs.L("campaign", "sib")
	siblings, exits := reg.Counter("campaign.sibling_exits", l).Value(), reg.Counter("campaign.early_exits", l).Value()
	if siblings == 0 {
		t.Error("no run joined a sibling's trajectory: the check would be vacuous")
	}
	t.Logf("%d scenarios: %d early exits, %d of them onto a sibling", len(scenarios), exits, siblings)

	dir := t.TempDir()
	journaled := func(sh stressor.Shard) string {
		path := filepath.Join(dir, fmt.Sprintf("shard%dof%d", sh.Index, sh.Count))
		c := campaign(sh)
		w, err := journal.Create(path, c.JournalHeader(scenarios))
		if err != nil {
			t.Fatal(err)
		}
		c.Journal = w
		if _, err := c.Execute(scenarios); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var js []*journal.Journal
	for i := 0; i < 2; i++ {
		j, err := journal.Read(journaled(stressor.Shard{Index: i, Count: 2}))
		if err != nil {
			t.Fatal(err)
		}
		js = append(js, j)
	}
	merged, err := stressor.Merge(stressor.MergeSpec{}, scenarios, js)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Outcomes, want.Outcomes) {
		t.Errorf("two shards merged diverge from the ReuseOff oracle:\ngot:  %+v\nwant: %+v", merged.Outcomes, want.Outcomes)
	}

	path := journaled(stressor.Shard{})
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-frame, a little under half-way: AppendTo trims the torn tail.
	if err := os.Truncate(path, fi.Size()*2/5+1); err != nil {
		t.Fatal(err)
	}
	c := campaign(stressor.Shard{})
	j, w, err := journal.AppendTo(path, c.JournalHeader(scenarios))
	if err != nil {
		t.Fatal(err)
	}
	if !j.Truncated || len(j.Entries) == 0 || len(j.Entries) >= len(scenarios) {
		t.Fatalf("the cut journal holds %d of %d entries (truncated %v): the resume would not be one", len(j.Entries), len(scenarios), j.Truncated)
	}
	c.Journal, c.Resume = w, j
	resumed, err := c.Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Outcomes, want.Outcomes) {
		t.Errorf("resumed campaign diverges from the ReuseOff oracle:\ngot:  %+v\nwant: %+v", resumed.Outcomes, want.Outcomes)
	}
}

// listSource proposes a fixed list and learns nothing from it.
type listSource []fault.Scenario

func (l *listSource) Next() (sc fault.Scenario, ok bool) {
	if ok = len(*l) > 0; ok {
		sc, *l = (*l)[0], (*l)[1:]
	}
	return sc, ok
}

func (*listSource) Observe(fault.Outcome) {}

// TestConvergedObservationIsTheFullRuns: the observation Converged
// composes for a run that joins a finished run's trajectory at a mark is
// the one Observe reads off the run carried to the horizon — the live
// history followed by the finished run's from the mark on, less the
// detections the live run already holds. A live history equal to the
// finished run's up to the mark takes the record's outputs themselves;
// any other — an empty live prefix, other severities, an extra live
// detection — is spliced, and a spliced stream equal to the record's or
// to golden's carries that string, its bytes shared: only a stream equal
// to neither is a string of its own. Marks sit at either end of both
// streams.
func TestConvergedObservationIsTheFullRuns(t *testing.T) {
	m := &model{cfg: Protected(), world: NormalDriving()}
	s, _ := Build(sim.NewKernel(), m.cfg, m.world)
	sev := []byte{0, 7, 42, 255, 100, 9}
	// Golden's outputs are the "other severities" splice at mark 1.
	m.golden = "\x01\x03" + string(sev[1:])
	det := []string{"plausibility", "crc", "timeout"}
	sevAt, detAt := []int{0, 1, 3, 6}, []int{0, 0, 2, 3}
	history := func(sv []byte, dt []string) {
		s.Severities, s.Detections = slices.Clone(sv), slices.Clone(dt)
	}
	var r record
	for n := range sevAt {
		history(sev[:sevAt[n]], det[:detAt[n]])
		m.Record(&r, s, n, nil)
	}
	s.Fired, s.FiredAt = true, sim.MS(12)
	history(sev, det)
	ob := m.Observe(s)
	m.Record(&r, s, len(sevAt), &ob)

	type liveHistory struct {
		name string
		sev  []byte
		det  []string
	}
	branches := map[string]int{}
	for n := range sevAt {
		prefix, known := sev[:sevAt[n]], det[:detAt[n]]
		lives := []liveHistory{
			{"equal", prefix, known},
			{"empty", nil, nil},
			{"other severities", []byte{3}, known},
			{"longer severities", append(slices.Clone(prefix), 10, 200), known},
			{"extra detection", prefix, append(slices.Clone(known), "stuck")},
		}
		if len(known) < len(det) {
			// A detection the finished run makes later, which the splice drops.
			lives = append(lives, liveHistory{"later detection first", prefix, append(slices.Clone(known), det[len(det)-1])})
		}
		for _, live := range lives {
			history(append(slices.Clone(live.sev), sev[sevAt[n]:]...), live.det)
			for _, d := range det[detAt[n]:] {
				s.detect(d)
			}
			want := m.Observe(s)
			history(live.sev, live.det)
			got := m.Converged(s, &r, n)
			if !reflect.DeepEqual(nilEmpty(got), nilEmpty(want)) {
				t.Errorf("mark %d, %s live history: converged %q %+v, full run %q %+v", n, live.name, got.Outputs, nilEmpty(got), want.Outputs, nilEmpty(want))
			}
			source := "its own" // whose bytes got.Outputs must be
			switch {
			case want.Outputs == r.out:
				source = "the record's"
				branches[source]++
				if bytes.Equal(live.sev, prefix) && slices.Equal(live.det, known) {
					branches["the record whole"]++
				}
			case want.Outputs == m.golden:
				source = "golden's"
				branches[source]++
			default:
				branches[source]++
			}
			shared := "its own"
			switch unsafe.StringData(got.Outputs) {
			case unsafe.StringData(r.out):
				shared = "the record's"
			case unsafe.StringData(m.golden):
				shared = "golden's"
			}
			if shared != source {
				t.Errorf("mark %d, %s live history: outputs %q share the bytes of %q, want %q", n, live.name, got.Outputs, shared, source)
			}
		}
	}
	for _, b := range []string{"the record whole", "the record's", "golden's", "its own"} {
		if branches[b] == 0 {
			t.Errorf("no live history takes %s outputs: the test is vacuous there", b)
		}
	}
}

// nilEmpty is ob with an empty DetectedBy nil: a record's reused list is
// empty where a fresh run's is nil.
func nilEmpty(ob analysis.Observation) analysis.Observation {
	if len(ob.DetectedBy) == 0 {
		ob.DetectedBy = nil
	}
	return ob
}
