package simtest

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// toy is a model with every kind of field the walk handles. Its
// switches seed the omissions the lint exists for: a field the digest
// leaves out, one the restore leaves out, one the capture skips when it
// reuses a buffer, and one the capture never writes (d, zero in the
// fixture).
type toy struct {
	name  string // configuration
	a     int
	b     uint32
	c     [3]bool
	d     int
	log   []rec
	err   error
	notes []string // diagnostics: restored, not hashed
	peer  *toy     // wiring
	cells map[int]int

	hashB, restoreC, reuseSkipsA, captureD bool
}

type rec struct{ at, val int }

type toyState struct {
	a, d  int
	b     uint32
	c     [3]bool
	log   []rec
	err   error
	notes []string
	cells map[int]int
}

func (m *toy) HashState(h *sim.StateHash) {
	h.Int(m.a)
	h.Int(m.d)
	if m.hashB {
		h.U32(m.b)
	}
	for _, v := range m.c {
		h.Bool(v)
	}
	h.Int(len(m.log))
	for _, r := range m.log {
		h.Int(r.at)
		h.Int(r.val)
	}
	h.Bool(m.err != nil)
	if m.err != nil {
		h.Str(m.err.Error())
	}
	h.Int(m.cells[7])
}

func (m *toy) SnapshotState(prev any) any {
	st, reused := prev.(*toyState)
	if !reused {
		st = &toyState{cells: map[int]int{}}
	}
	if !reused || !m.reuseSkipsA {
		st.a = m.a
	}
	if m.captureD {
		st.d = m.d
	}
	st.b, st.c, st.err = m.b, m.c, m.err
	st.log = append(st.log[:0], m.log...)
	st.notes = append(st.notes[:0], m.notes...)
	clear(st.cells)
	for k, v := range m.cells {
		st.cells[k] = v
	}
	return st
}

func (m *toy) RestoreState(state any) {
	st := state.(*toyState)
	m.a, m.b, m.d, m.err = st.a, st.b, st.d, st.err
	if m.restoreC {
		m.c = st.c
	}
	m.log = append(m.log[:0], st.log...)
	m.notes = append(m.notes[:0], st.notes...)
	clear(m.cells)
	for k, v := range st.cells {
		m.cells[k] = v
	}
}

func newToy() *toy {
	return &toy{
		name: "toy", a: 1, b: 2, log: []rec{{1, 2}, {3, 4}}, notes: []string{"n"},
		cells: map[int]int{7: 1}, hashB: true, restoreC: true, captureD: true,
	}
}

func toyRules(m *toy) map[string]Rule {
	return map[string]Rule{
		"name":        NotState("instance name, fixed at construction"),
		"notes":       Unhashed("diagnostics nothing reads back"),
		"peer":        NotState("wiring"),
		"cells":       Via("map state, perturbed the way the model writes it", func() { m.cells[7]++ }),
		"hashB":       NotState("test switch"),
		"restoreC":    NotState("test switch"),
		"reuseSkipsA": NotState("test switch"),
		"captureD":    NotState("test switch"),
	}
}

// recorder collects the lint's findings instead of failing the test.
type recorder struct{ msgs []string }

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}

func (r *recorder) mentions(sub string) bool {
	for _, m := range r.msgs {
		if strings.Contains(m, sub) {
			return true
		}
	}
	return false
}

func TestStateCoveragePassesOnACoveredModel(t *testing.T) {
	m := newToy()
	StateCoverage(t, m, m, toyRules(m))
}

// TestStateCoverageCatchesSeededOmissions is the lint's own
// qualification: each seeded omission — a field left out of the digest,
// of the restore, of the capture when it reuses a buffer, or of the
// capture altogether (with a zero value and without), a field the walk
// cannot reach with no rule, a rule with no reason, a rule for a field
// that is gone — must be reported, and against that field alone.
func TestStateCoverageCatchesSeededOmissions(t *testing.T) {
	cases := []struct {
		name string
		seed func(m *toy, rules map[string]Rule)
		want string
	}{
		{"field missing from HashState", func(m *toy, _ map[string]Rule) { m.hashB = false },
			"simtest.toy.b: perturbing it leaves the HashState digest unchanged"},
		{"field missing from RestoreState", func(m *toy, _ map[string]Rule) { m.restoreC = false },
			"simtest.toy.c[0]: capture into nil → perturb → restore does not put it back"},
		{"field skipped by a capture into a buffer", func(m *toy, _ map[string]Rule) { m.reuseSkipsA = true },
			"simtest.toy.a: capture into a buffer holding it perturbed → perturb → restore does not put it back"},
		{"zero field missing from the capture", func(m *toy, _ map[string]Rule) { m.captureD = false },
			"simtest.toy.d: capture into nil → perturb → restore does not put it back"},
		{"field missing from the capture", func(m *toy, _ map[string]Rule) { m.captureD, m.d = false, 5 },
			"simtest.toy.d: capture into nil → perturb → restore does not put it back"},
		{"unreachable field without a rule", func(_ *toy, rules map[string]Rule) { delete(rules, "peer") },
			"simtest.toy.peer: a ptr cannot be perturbed by reflection"},
		{"rule without a reason", func(_ *toy, rules map[string]Rule) { rules["peer"] = NotState(" ") },
			"simtest.toy.peer: rule without a reason"},
		{"stale rule", func(_ *toy, rules map[string]Rule) { rules["gone"] = NotState("was removed") },
			"simtest.toy.gone: rule names no field"},
		{"diagnostics field not restored", func(m *toy, rules map[string]Rule) {
			rules["c"] = Unhashed("pretend diagnostics")
			m.restoreC = false
		}, "simtest.toy.c[0]: capture into nil → perturb → restore does not put it back"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newToy()
			rules := toyRules(m)
			tc.seed(m, rules)
			var rec recorder
			StateCoverage(&rec, m, m, rules)
			if !rec.mentions(tc.want) {
				t.Fatalf("lint did not report %q; it said:\n%s", tc.want, strings.Join(rec.msgs, "\n"))
			}
			field, _, _ := strings.Cut(tc.want, ":")
			field, _, _ = strings.Cut(field, "[")
			for _, msg := range rec.msgs {
				if path, _, _ := strings.Cut(strings.TrimPrefix(msg, "statelint: "), ":"); path != "simtest.toy" && !strings.HasPrefix(path, field) {
					t.Errorf("lint blamed another field than %s: %s", field, msg)
				}
			}
		})
	}
}
