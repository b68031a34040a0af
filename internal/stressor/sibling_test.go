package stressor

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Sibling convergence on a toy prototype whose digest leaves a deduped
// history out (DESIGN §14). dedupModel ticks every instant; with its flag
// raised, every dedupPeriod-th tick detects "alarm", recorded once. Two
// runs that raised the flag at different instants share their digest
// from the later injection on, but not their detections until the later
// run's first alarm: joining the earlier run before then would splice
// its empty suffix — the alarm already recorded there — onto a run that
// has yet to record it.

const (
	dedupPeriod  = 20
	dedupHorizon = 160 // stride 10
)

type dedupModel struct {
	ev   *sim.Event
	c    int
	flag bool
	det  []string
}

func (m *dedupModel) detect(d string) {
	if !slices.Contains(m.det, d) {
		m.det = append(m.det, d)
	}
}

type dedupState struct {
	c    int
	flag bool
	det  []string
}

func (m *dedupModel) SnapshotState(any) any {
	return dedupState{m.c, m.flag, slices.Clone(m.det)}
}

func (m *dedupModel) RestoreState(st any) {
	s := st.(dedupState)
	m.c, m.flag, m.det = s.c, s.flag, slices.Clone(s.det)
}

// HashState leaves det out, as CAPS leaves out its detections.
func (m *dedupModel) HashState(h *sim.StateHash) {
	h.Int(m.c)
	h.Bool(m.flag)
}

// dedupToy is dedupModel's Model, recording as CAPS's does: the
// detection count at each mark and the final detections.
type dedupToy struct{}

type dedupRecord struct {
	detAt []int
	det   []string
}

func (dedupToy) Build(k *sim.Kernel) (*dedupModel, *fault.Registry) {
	m := &dedupModel{ev: k.NewEvent("tick")}
	k.MethodNoInit("tick", func() {
		m.c++
		if m.flag && m.c%dedupPeriod == 0 {
			m.detect("alarm")
		}
		m.ev.Notify(1)
	}, m.ev)
	m.ev.Notify(1)
	reg := fault.NewRegistry()
	reg.MustRegister(&fault.FuncInjector{
		SiteName: "toy.flag", Models: []fault.Model{fault.StuckAt1},
		InjectFn: func(fault.Descriptor) error { m.flag = true; return nil },
	})
	return m, reg
}

func (dedupToy) Observe(m *dedupModel) analysis.Observation {
	return analysis.Observation{GoalViolated: true, GoalDetail: fmt.Sprintf("det=%v", m.det)}
}

func (dedupToy) Golden(*dedupModel, analysis.Observation) error { return nil }

func (dedupToy) Record(r *dedupRecord, m *dedupModel, n int, ob *analysis.Observation) {
	if ob == nil {
		r.detAt = append(r.detAt[:n], len(m.det))
		return
	}
	r.det = append(r.det[:0], m.det...)
}

func (dedupToy) HistoryKey(m *dedupModel) uint64 {
	var sum uint64
	for _, d := range m.det {
		h := sim.NewStateHash()
		h.Str(d)
		sum += h.Sum()
	}
	if len(m.det) > 0 {
		sum |= 1
	}
	return sum
}

func (t dedupToy) Converged(m *dedupModel, r *dedupRecord, n int) analysis.Observation {
	for _, d := range r.det[r.detAt[n]:] {
		m.detect(d)
	}
	return t.Observe(m)
}

func newDedupHost(t *testing.T) *Host[*dedupModel, dedupRecord] {
	t.Helper()
	h, err := NewHost[*dedupModel, dedupRecord]("dedup", dedupToy{}, dedupHorizon)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// flagAt raises the flag for good at instant at.
func flagAt(at sim.Time) fault.Scenario {
	return fault.Single(fault.Descriptor{Name: fmt.Sprintf("flag@%d", uint64(at)), Model: fault.StuckAt1,
		Class: fault.Permanent, Target: "toy.flag", Start: at})
}

// TestSiblingRefusedWhileDedupHistoryDiffers: the run flagged at 25
// passes the flagged-at-5 run's digest at every stride instant from 30
// on, but at 30 that run has recorded its alarm (at 20) and this one has
// not (its first is at 40). It must not join there; at 40 both have, and
// it joins. Its outcome, signature included, is the ReuseOff oracle's,
// and it saves the 120 instants from 40 to the horizon. Joining at 30
// would save 130 and lose the alarm.
func TestSiblingRefusedWhileDedupHistoryDiffers(t *testing.T) {
	naive := newDedupHost(t)
	naive.ReuseOff = true
	h := newDedupHost(t)
	reg := obs.NewRegistry()
	scope := campaignScope{refs: 1}
	sess := h.NewTreeSession(TreeConfig{Metrics: reg, Campaign: "dedup", sign: true, scope: &scope})
	for _, sc := range []fault.Scenario{flagAt(5), flagAt(25)} {
		fork, _ := h.ForkTime(sc)
		got, want := sess.Run(sc, fork), naive.RunScenarioSigned(sc)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %+v, ReuseOff oracle %+v", sc.ID, got, want)
		}
	}
	l := obs.L("campaign", "dedup")
	if exits, saved := reg.Counter("campaign.sibling_exits", l).Value(), reg.Counter("campaign.early_exit_saved_sim_ns", l).Value(); exits != 1 || saved != 120 {
		t.Errorf("%d sibling exits saving %d instants, want 1 saving 120 (joined at 40)", exits, saved)
	}
	sess.Close()
	scope.leave()
	if len(h.sets) != 1 {
		t.Errorf("the host holds %d spare sets after the campaign, want 1", len(h.sets))
	}
}

// TestSiblingSetLifetime: a campaign's set answers only its own runs —
// the next campaign on the host starts from golden alone, in the same
// buffers, so its run of the flagged-at-5 scenario joins nothing — and a
// session the campaign abandoned publishes nothing, and keeps the set
// from going back.
func TestSiblingSetLifetime(t *testing.T) {
	h := newDedupHost(t)
	reg := obs.NewRegistry()
	exits := reg.Counter("campaign.sibling_exits", obs.L("campaign", "life"))
	run := func(scope *campaignScope, abandon bool, sc fault.Scenario) *trajSet[*dedupModel, dedupRecord] {
		s := h.NewTreeSession(TreeConfig{Metrics: reg, Campaign: "life", scope: scope}).(*session[*dedupModel, dedupRecord])
		if abandon {
			s.abandon()
		}
		fork, _ := h.ForkTime(sc)
		s.Run(sc, fork)
		set := s.set
		if !abandon {
			s.Close()
		}
		return set
	}
	first := campaignScope{refs: 1}
	set := run(&first, false, flagAt(25))
	if len(set.runs) != 1 {
		t.Fatalf("the campaign's set holds %d runs, want the one it finished", len(set.runs))
	}
	first.leave()
	second := campaignScope{refs: 1}
	if again := run(&second, false, flagAt(5)); again != set || exits.Value() != 0 {
		t.Errorf("the next campaign's set is %p, its run joined %d siblings: want %p, none", again, exits.Value(), set)
	}
	second.leave()
	third := campaignScope{refs: 1}
	if set := run(&third, true, flagAt(5)); len(set.runs) != 0 {
		t.Errorf("an abandoned session published %d runs", len(set.runs))
	}
	third.leave()
	if len(h.sets) != 0 {
		t.Errorf("the host got back a set an abandoned session still holds")
	}
}
