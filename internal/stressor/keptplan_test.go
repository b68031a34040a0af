package stressor

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// earliestFork forks every scenario at its earliest Start, so that the
// generated universes, whose instants lie past the toy host's horizon,
// still sort by fork. It keeps its plan in a cache of its own: the
// host's is sorted by the host's forks.
type earliestFork struct {
	*Host[*windowModel, analysis.Observation]
	plans *planCache
}

func (earliestFork) ForkTime(sc fault.Scenario) (sim.Time, bool) { return ForkTime(sc), true }

func (p earliestFork) planCache() *planCache { return p.plans }

func newEarliestFork(t *testing.T) earliestFork {
	return earliestFork{newWindowHost(t), &planCache{}}
}

// unkeptFork is earliestFork keeping no plan: every Execute sorts afresh.
type unkeptFork struct{ earliestFork }

func (unkeptFork) planCache() *planCache { return nil }

// plannedTodo is what an Execute of scenarios by c hands out, in order,
// and whether its plan was a kept one.
func plannedTodo(c *Campaign, scenarios []fault.Scenario) ([]int, bool) {
	e := newExec(c, scenarios)
	return newListPlan(e).todo, e.planReused
}

// freshOwners is the owners of count shards that a fresh plan of
// scenarios under dedup holds.
func freshOwners(scenarios []fault.Scenario, dedup bool, count int) []int {
	owners, _ := newUniversePlan(scenarios, dedup, nil).cut(scenarios, count)
	return owners
}

// plansLikeFresh plans scenarios on every shard of count, on p and on a
// p that keeps nothing, and fails unless each shard's todo is the fresh
// one and the owners p keeps for count are a fresh plan's. It returns,
// per shard, whether p's plan was a kept one.
func plansLikeFresh(t *testing.T, name string, p earliestFork, scenarios []fault.Scenario, dedup bool, count int) []bool {
	t.Helper()
	reused := make([]bool, count)
	for s := range reused {
		c := Campaign{Name: "kept", Dedup: dedup, Shard: Shard{Index: s, Count: count}, Checkpointer: p}
		got, r := plannedTodo(&c, scenarios)
		c.Checkpointer = unkeptFork{p}
		want, _ := plannedTodo(&c, scenarios)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: shard %d/%d dispatches %v, a fresh sort %v", name, s, count, got, want)
		}
		reused[s] = r
	}
	if kp := p.planCache().find(scenarios, dedup); kp != nil && count > 1 {
		if want := freshOwners(scenarios, dedup, count); kp.ownerCount != count || !slices.Equal(kp.owners, want) {
			t.Fatalf("%s: kept owners for %d shards %v, fresh for %d %v", name, kp.ownerCount, kp.owners, count, want)
		}
	}
	return reused
}

// rebuilt is a deep copy of scenarios: new slices, new strings.
func rebuilt(scenarios []fault.Scenario) []fault.Scenario {
	out := make([]fault.Scenario, len(scenarios))
	for i, sc := range scenarios {
		out[i] = fault.Scenario{ID: strings.Clone(sc.ID), Faults: slices.Clone(sc.Faults)}
		for j := range out[i].Faults {
			d := &out[i].Faults[j]
			d.Name, d.Target = strings.Clone(d.Name), strings.Clone(d.Target)
		}
	}
	return out
}

// TestKeptPlanIsAFreshPlan: on every generated universe, with and
// without Dedup, at every shard count from 1 to 9, a host that kept a
// universe's plan hands out exactly the order and owners a fresh sort
// gives. A universe mutated in place between two Executes — the same
// slice, one Start moved — is planned anew, a rebuilt equal one is
// served the kept plan, and a NaN Param never matches (and still plans
// right).
func TestKeptPlanIsAFreshPlan(t *testing.T) {
	p := newEarliestFork(t)
	for _, u := range generatedUniverses() {
		for _, dedup := range []bool{false, true} {
			name := fmt.Sprintf("%s/dedup=%v", u.name, dedup)
			for count := 1; count <= 9; count++ {
				for s, r := range plansLikeFresh(t, fmt.Sprintf("%s/count=%d", name, count), p, u.scenarios, dedup, count) {
					if want := count > 1 || s > 0; r != want {
						t.Fatalf("%s: shard %d/%d served a kept plan: %v, want %v", name, s, count, r, want)
					}
				}
			}
			if len(u.scenarios) == 0 {
				continue
			}
			scenarios := rebuilt(u.scenarios)
			if r := plansLikeFresh(t, name+"/rebuilt", p, scenarios, dedup, 4); slices.Contains(r, false) {
				t.Fatalf("%s: a rebuilt equal universe was planned anew: %v", name, r)
			}
			scenarios[len(scenarios)/2].Faults[0].Start += sim.MS(3)
			if r := plansLikeFresh(t, name+"/moved", p, scenarios, dedup, 4); r[0] || slices.Contains(r[1:], false) {
				t.Fatalf("%s: a universe with one Start moved in place: kept plans %v, want the first shard's fresh", name, r)
			}
			scenarios[len(scenarios)/3].Faults[0].Param = math.NaN()
			for range 2 {
				if r := plansLikeFresh(t, name+"/nan", p, scenarios, dedup, 4); slices.Contains(r, true) {
					t.Fatalf("%s: a universe holding a NaN matched a kept plan: %v", name, r)
				}
			}
		}
	}
}

// TestKeptPlanKeyIsEveryField: two descriptors are one plan's key
// exactly when every field agrees, Name included, so a field added to
// fault.Descriptor cannot be left out of the comparison unnoticed; -0 is
// not 0, as in a dedup key, and a NaN matches nothing, itself included.
func TestKeptPlanKeyIsEveryField(t *testing.T) {
	base := fault.Descriptor{Name: "n", Model: fault.BitFlip, Class: fault.Transient, Domain: fault.AnalogHW,
		Target: "t", Bit: 3, Address: 7, Param: 1.5, Start: 10, Duration: 5, Period: 2, Rate: 0.5}
	if d := base; !sameDescriptor(&base, &d) {
		t.Fatal("a descriptor is not its copy's key")
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		d := base
		switch f := reflect.ValueOf(&d).Elem().Field(i); f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 1)
		default:
			t.Fatalf("field %s: kind %s not covered", typ.Field(i).Name, f.Kind())
		}
		if sameDescriptor(&base, &d) {
			t.Errorf("field %s differs, yet the descriptors are one key", typ.Field(i).Name)
		}
	}
	zero, negZero := base, base
	zero.Param, negZero.Param = 0, math.Copysign(0, -1)
	if sameDescriptor(&zero, &negZero) {
		t.Error("Param 0 and -0 are one plan's key; a dedup key tells them apart")
	}
	nan := base
	nan.Rate = math.NaN()
	if same := nan; sameDescriptor(&nan, &same) {
		t.Error("a NaN Rate matches itself; a universe holding one must be planned afresh")
	}
}

// TestPlanSharedAcrossConcurrentCampaigns runs campaigns on one host
// from two goroutines at once, on one universe and on more distinct ones
// than the host keeps plans for, so that kept plans are replaced under
// them: every result is the one a host of its own gives. The host then
// serves a repeated universe from its plan.
func TestPlanSharedAcrossConcurrentCampaigns(t *testing.T) {
	universe := func(k int) []fault.Scenario {
		var out []fault.Scenario
		for at := sim.Time(1 + k); at < windowHorizon; at += 9 {
			for _, site := range []string{"toy.reg", "toy.reg2", "toy.line"} {
				name := fmt.Sprintf("%s@%d", site, uint64(at))
				out = append(out, fault.Single(permanent(name, site, fault.StuckAt1, at)))
			}
		}
		return out
	}
	const kinds = maxKeptPlans + 3
	want := make([]*Result, kinds)
	for k := range want {
		res, err := (&Campaign{Name: "shared", Checkpointer: newWindowHost(t)}).Execute(universe(k))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range res.Outcomes {
			if strings.HasPrefix(o.Detail, "campaign error") {
				t.Fatalf("universe %d: %s: %s", k, o.Scenario.ID, o.Detail)
			}
		}
		want[k] = res
	}
	h := newWindowHost(t)
	reg := obs.NewRegistry()
	execute := func(k int) error {
		res, err := (&Campaign{Name: "shared", Workers: 2, Metrics: reg, Checkpointer: h}).Execute(universe(k))
		if err == nil && !reflect.DeepEqual(res, want[k]) {
			err = fmt.Errorf("universe %d: result differs from its own host's", k)
		}
		return err
	}
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2 * kinds {
				k := 0 // every other campaign runs the one universe both run
				if i%2 == 1 {
					k = (i/2*(g+1) + g) % kinds
				}
				if err := execute(k); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	reused := reg.Counter("campaign.plan_reused", obs.L("campaign", "shared"))
	if n := reused.Value(); n >= 4*kinds {
		t.Errorf("plan_reused = %d of %d Executes; the first cannot be", n, 4*kinds)
	}
	for range 2 {
		if err := execute(kinds - 1); err != nil {
			t.Fatal(err)
		}
	}
	if before := reused.Value(); before == 0 {
		t.Error("a universe executed twice in a row was not served its kept plan")
	}
}

// TestKeptPlanHoldsOneOwnerMap: a plan asked for the owners of many
// shard counts holds those of the last one only, so a daemon spec
// repeated with a new shard count each time cannot grow it; each count
// still gets a fresh plan's owners, the partition order is sorted once
// across all counts, and a repeat of the last count is served without
// cutting the owners again.
func TestKeptPlanHoldsOneOwnerMap(t *testing.T) {
	var scenarios []fault.Scenario
	for _, u := range generatedUniverses() {
		if len(u.scenarios) > len(scenarios) {
			scenarios = u.scenarios
		}
	}
	p := newEarliestFork(t)
	var byTime *int // the kept plan's partition order
	for _, count := range []int{2, 9, 64, 3, 500, 2} {
		for _, s := range []int{0, count - 1} {
			c := Campaign{Name: "owners", Shard: Shard{Index: s, Count: count}, Checkpointer: p}
			plannedTodo(&c, scenarios)
		}
		kp := p.planCache().find(scenarios, false)
		if kp == nil {
			t.Fatalf("%d shards: no plan kept", count)
		}
		if kp.ownerCount != count || !slices.Equal(kp.owners, freshOwners(scenarios, false, count)) {
			t.Fatalf("%d shards: plan holds the owners for %d shards", count, kp.ownerCount)
		}
		if byTime == nil {
			byTime = &kp.byTime[0]
		} else if &kp.byTime[0] != byTime {
			t.Fatalf("%d shards: the partition order was sorted again", count)
		}
		owners := &kp.owners[0]
		plannedTodo(&Campaign{Name: "owners", Shard: Shard{Index: 1, Count: count}, Checkpointer: p}, scenarios)
		if &kp.owners[0] != owners {
			t.Fatalf("%d shards: a repeated count cut its owners again", count)
		}
	}
}

// TestHostKeepsACycleOfUniverses: a host that executes a cycle of
// distinct universes, as a daemon's cached runner does for repeated
// specs, plans each once and serves every later Execute from its plan.
func TestHostKeepsACycleOfUniverses(t *testing.T) {
	var cycle [][]fault.Scenario
	for _, u := range generatedUniverses() {
		if len(u.scenarios) > 0 {
			cycle = append(cycle, u.scenarios)
		}
	}
	if len(cycle) < 2 || len(cycle) > maxKeptPlans {
		t.Fatalf("%d universes: want a cycle of 2 to %d", len(cycle), maxKeptPlans)
	}
	p := newEarliestFork(t)
	for round := range 3 {
		for i, scenarios := range cycle {
			if _, r := plannedTodo(&Campaign{Name: "cycle", Checkpointer: p}, scenarios); r != (round > 0) {
				t.Fatalf("round %d, universe %d: served a kept plan: %v", round, i, r)
			}
		}
	}
}

// TestJournalHeaderReadsTheKeptFingerprint: once a host keeps a list's
// plan, a journal header of that list — or of a rebuilt equal one —
// carries the fingerprint the plan hashed once, which equals
// UniverseHash of the list. A list that differs in one scenario ID, one
// fault Name, -0 for 0 in a Param, a NaN or a Start matches no plan and
// is hashed afresh, to its own UniverseHash. Two goroutines asking at
// once read the kept fingerprint and hash the rest safely.
func TestJournalHeaderReadsTheKeptFingerprint(t *testing.T) {
	p := newEarliestFork(t)
	for _, u := range generatedUniverses() {
		if len(u.scenarios) == 0 {
			continue
		}
		c := &Campaign{Name: "fp", Checkpointer: p}
		header := func(scenarios []fault.Scenario) string { return c.JournalHeader(scenarios).Universe }
		want := UniverseHash(u.scenarios)
		if got := header(u.scenarios); got != want {
			t.Fatalf("%s: header before any plan %s, UniverseHash %s", u.name, got, want)
		}
		plannedTodo(c, u.scenarios)
		kp := p.planCache().find(u.scenarios, false)
		if kp == nil {
			t.Fatalf("%s: no plan kept", u.name)
		}
		var wg sync.WaitGroup
		for range 2 { // the first two asks, at once
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := header(u.scenarios); got != want {
					t.Errorf("%s: header %s, UniverseHash %s", u.name, got, want)
				}
			}()
		}
		wg.Wait()
		if kp.fp != want {
			t.Fatalf("%s: plan keeps fingerprint %q, UniverseHash %s", u.name, kp.fp, want)
		}
		if got := header(rebuilt(u.scenarios)); got != want || p.planCache().find(rebuilt(u.scenarios), false) != kp {
			t.Fatalf("%s: a rebuilt equal list: header %s (want %s), or it misses the kept plan", u.name, got, want)
		}

		k := len(u.scenarios) - 1
		for len(u.scenarios[k].Faults) == 0 {
			k--
		}
		variants := map[string]func(sc *fault.Scenario){
			"id":      func(sc *fault.Scenario) { sc.ID += "x" },
			"name":    func(sc *fault.Scenario) { sc.Faults[0].Name += "x" },
			"-0":      func(sc *fault.Scenario) { sc.Faults[0].Param = math.Copysign(0, -1) },
			"NaN":     func(sc *fault.Scenario) { sc.Faults[0].Param = math.NaN() },
			"unequal": func(sc *fault.Scenario) { sc.Faults[0].Start++ },
		}
		for name, change := range variants {
			v := rebuilt(u.scenarios)
			change(&v[k])
			vwant := UniverseHash(v)
			if vwant == want {
				t.Fatalf("%s/%s: the variant hashes as the list", u.name, name)
			}
			for g := range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range 4 {
						list, lwant := v, vwant
						if (i+g)%2 == 1 {
							list, lwant = u.scenarios, want
						}
						if got := header(list); got != lwant {
							t.Errorf("%s/%s: header %s, UniverseHash %s", u.name, name, got, lwant)
						}
					}
				}()
			}
			wg.Wait()
			if got := header(v); got != vwant {
				t.Fatalf("%s/%s: header %s, UniverseHash %s", u.name, name, got, vwant)
			}
			if p.planCache().find(v, false) != nil {
				t.Fatalf("%s/%s: the variant matches a kept plan", u.name, name)
			}
		}
	}
}

// TestKeptPlanShardViewRunsItsOwnUniverse: a sharded Execute served a
// kept plan runs, classifies and journals the scenarios it was handed,
// never those of the Execute the plan was made for. A universe of equal
// fault content under other IDs and names, and a rebuilt copy of a
// universe whose first slice was since moved in place, each run shard
// 1/3 exactly as a host that keeps no plan runs it.
func TestKeptPlanShardViewRunsItsOwnUniverse(t *testing.T) {
	universe := func(prefix string) []fault.Scenario {
		var out []fault.Scenario
		for at := sim.Time(2); at < windowHorizon-10; at += 7 {
			for _, site := range []string{"toy.reg", "toy.line", "toy.late"} {
				name := fmt.Sprintf("%s%s@%d", prefix, site, uint64(at))
				out = append(out, fault.Single(permanent(name, site, fault.StuckAt1, at)))
			}
		}
		return out
	}
	sh := Shard{Index: 1, Count: 3}
	execute := func(p Checkpointer, scenarios []fault.Scenario) (*Result, []string) {
		t.Helper()
		var sink entrySink
		res, err := (&Campaign{Name: "view", Shard: sh, Checkpointer: p, Journal: &sink}).Execute(scenarios)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(sink))
		for i, e := range sink {
			ids[i] = e.ID
		}
		slices.Sort(ids)
		return res, ids
	}
	sameRun := func(name string, p earliestFork, scenarios []fault.Scenario) {
		t.Helper()
		got, gotIDs := execute(p, scenarios)
		want, wantIDs := execute(unkeptFork{p}, scenarios)
		if len(got.Outcomes) != len(want.Outcomes) || len(got.Outcomes) == 0 {
			t.Fatalf("%s: %d outcomes, a host keeping no plan %d", name, len(got.Outcomes), len(want.Outcomes))
		}
		for i := range got.Outcomes {
			if g, w := got.Outcomes[i].Scenario, want.Outcomes[i].Scenario; !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: outcome %d is scenario %+v, a host keeping no plan ran %+v", name, i, g, w)
			}
		}
		if !slices.Equal(gotIDs, wantIDs) {
			t.Fatalf("%s: journaled %v, a host keeping no plan %v", name, gotIDs, wantIDs)
		}
	}

	p := newEarliestFork(t)
	execute(p, universe(""))
	sameRun("other IDs and names", p, universe("other-"))

	p = newEarliestFork(t)
	s := universe("")
	original := rebuilt(s)
	execute(p, s)
	for i := range s {
		s[i].Faults[0].Start += 3
	}
	sameRun("rebuilt after a move in place", p, original)
}
