package stressor

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/sim"
)

// fanModel is a toy prototype for the torn-slot test. Eight beat methods
// wake together every fanPeriod, so the kernel's runnable queue and its
// spare both grow to hold them; at time zero the start method fans out
// through an immediate notification to two sinks while the methods
// started with it are still waiting in the same evaluate batch. Every
// activation is counted, and the counts are the outcome detail.
type fanModel struct {
	k                   *sim.Kernel
	beat, fan           *sim.Event
	started, x, y, late int
	beats               int
}

const (
	fanPeriod  = 10
	fanHorizon = 50
)

func (m *fanModel) SnapshotState(any) any { return *m }

func (m *fanModel) RestoreState(st any) {
	s := st.(fanModel)
	m.started, m.x, m.y, m.late, m.beats = s.started, s.x, s.y, s.late, s.beats
}

func (m *fanModel) HashState(h *sim.StateHash) {
	for _, v := range []int{m.started, m.x, m.y, m.late, m.beats} {
		h.Int(v)
	}
}

// fanToy is fanModel's Model; its registry's one site panics when
// injected. A converged run observes what the run it joined did.
type fanToy struct{ FinalObservation[*fanModel] }

func (*fanToy) Build(k *sim.Kernel) (*fanModel, *fault.Registry) {
	m := &fanModel{k: k, beat: k.NewEvent("beat"), fan: k.NewEvent("fan")}
	k.Method("start", func() {
		m.started++
		m.fan.NotifyImmediate()
	})
	k.Method("late", func() { m.late++ })
	k.MethodNoInit("x", func() { m.x++ }, m.fan)
	k.MethodNoInit("y", func() { m.y++ }, m.fan)
	for i := 0; i < 8; i++ {
		k.MethodNoInit(fmt.Sprintf("beat%d", i), func() { m.beats++ }, m.beat)
	}
	k.MethodNoInit("clock", func() { m.beat.Notify(fanPeriod) }, m.beat)
	m.beat.Notify(fanPeriod)
	reg := fault.NewRegistry()
	reg.MustRegister(&fault.FuncInjector{
		SiteName: "fan.panic", Models: []fault.Model{fault.Open},
		InjectFn: func(fault.Descriptor) error { panic("injector panics") },
	})
	reg.MustRegister(&fault.FuncInjector{
		SiteName: "fan.quiet", Models: []fault.Model{fault.Open},
		InjectFn: func(fault.Descriptor) error { return nil },
	})
	return m, reg
}

func (*fanToy) Observe(m *fanModel) analysis.Observation {
	return analysis.Observation{GoalViolated: true,
		GoalDetail: fmt.Sprintf("started=%d late=%d x=%d y=%d beats=%d", m.started, m.late, m.x, m.y, m.beats)}
}
func (*fanToy) Golden(*fanModel, analysis.Observation) error { return nil }

func newFanHost(t *testing.T) *Host[*fanModel, analysis.Observation] {
	t.Helper()
	h, err := NewHost[*fanModel, analysis.Observation]("fan", &fanToy{}, fanHorizon)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// TestTornSlotNeverReturnsToThePool: a run whose injector panics
// mid-evaluate leaves its kernel torn — the runnable queue and its spare
// on one array — and a restore does not mend it. Pooled again, the slot
// would run the next scenario's time-zero fan-out into the batch being
// evaluated and lose a process without an error. The slot of a run that
// panicked must never be reused: the next run matches ReuseOff's.
func TestTornSlotNeverReturnsToThePool(t *testing.T) {
	oracle, h := newFanHost(t), newFanHost(t)
	oracle.ReuseOff = true
	at := func(site string, t sim.Time) fault.Scenario {
		return fault.Single(permanent(site+"@"+fmt.Sprint(uint64(t)), site, fault.Open, t))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panicking injector did not panic")
			}
		}()
		// Between beats: the stressor is alone in its batch, so the queue
		// it leaves behind aliases the spare, which the beats grew to eight.
		h.RunScenario(at("fan.panic", fanPeriod*2+5))
	}()
	sc := at("fan.quiet", fanPeriod*3+5)
	want := oracle.RunScenario(sc)
	if got := h.RunScenario(sc); got.Class != want.Class || got.Detail != want.Detail {
		t.Errorf("after a panicked run: got %s %q, ReuseOff says %s %q", got.Class, got.Detail, want.Class, want.Detail)
	}
}
