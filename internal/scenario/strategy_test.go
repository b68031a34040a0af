package scenario

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/sim"
)

func universe(sites int) []fault.Descriptor {
	var u []fault.Descriptor
	for i := 0; i < sites; i++ {
		site := string(rune('a' + i))
		for _, m := range []fault.Model{fault.StuckAt0, fault.StuckAt1} {
			u = append(u, fault.Descriptor{
				Name: site + "/" + m.String(), Model: m, Class: fault.Permanent, Target: site,
			})
		}
	}
	return u
}

func TestMonteCarloBudgetAndWindow(t *testing.T) {
	u := universe(4)
	m := NewMonteCarlo(u, 50, rand.New(rand.NewSource(1)))
	m.Window = sim.MS(1)
	n := 0
	for {
		sc, ok := m.Next()
		if !ok {
			break
		}
		n++
		if sc.Faults[0].Start >= sim.MS(1) {
			t.Errorf("start %v outside window", sc.Faults[0].Start)
		}
	}
	if n != 50 {
		t.Errorf("produced %d, want 50", n)
	}
}

func TestMonteCarloMultiFault(t *testing.T) {
	u := universe(4)
	m := NewMonteCarlo(u, 10, rand.New(rand.NewSource(2)))
	m.MultiFault = 3
	sc, ok := m.Next()
	if !ok || len(sc.Faults) != 3 {
		t.Fatalf("scenario = %+v", sc)
	}
	if err := sc.Validate(); err != nil {
		t.Errorf("multi-fault scenario invalid: %v", err)
	}
}

func TestMonteCarloDeterministicPerSeed(t *testing.T) {
	u := universe(4)
	m1 := NewMonteCarlo(u, 5, rand.New(rand.NewSource(9)))
	m2 := NewMonteCarlo(u, 5, rand.New(rand.NewSource(9)))
	for {
		a, ok1 := m1.Next()
		b, ok2 := m2.Next()
		if ok1 != ok2 {
			t.Fatal("length mismatch")
		}
		if !ok1 {
			break
		}
		if a.Faults[0].Name != b.Faults[0].Name || a.Faults[0].Start != b.Faults[0].Start {
			t.Fatal("not reproducible")
		}
	}
}

func TestGuidedPhase1ThenPairs(t *testing.T) {
	u := universe(3) // 6 descriptors over sites a,b,c
	g := NewGuided(u, 1000)
	var singles, pairs int
	for {
		sc, ok := g.Next()
		if !ok {
			break
		}
		switch len(sc.Faults) {
		case 1:
			singles++
			// Report site "b" as the weak spot.
			class := fault.Masked
			if sc.Faults[0].Target == "b" {
				class = fault.DetectedSafe
			}
			g.Observe(fault.Outcome{Scenario: sc, Class: class})
		case 2:
			pairs++
			g.Observe(fault.Outcome{Scenario: sc, Class: fault.Masked})
		}
	}
	if singles != len(u) {
		t.Errorf("singles = %d, want %d", singles, len(u))
	}
	if pairs == 0 {
		t.Error("no pair scenarios generated")
	}
}

func TestGuidedPrefersWeakSites(t *testing.T) {
	u := universe(6)
	g := NewGuided(u, 10000)
	g.TopSites = 2
	// Phase 1: mark site "e" and "f" as severe.
	for {
		sc, ok := g.Next()
		if !ok {
			break
		}
		if len(sc.Faults) == 1 {
			class := fault.Masked
			if sc.Faults[0].Target == "e" || sc.Faults[0].Target == "f" {
				class = fault.SDC
			}
			g.Observe(fault.Outcome{Scenario: sc, Class: class})
			continue
		}
		// Phase 2 pairs must only involve the two weak sites.
		for _, d := range sc.Faults {
			if d.Target != "e" && d.Target != "f" {
				t.Errorf("pair includes non-weak site %s", d.Target)
			}
		}
		g.Observe(fault.Outcome{Scenario: sc, Class: fault.Masked})
	}
}

func TestGuidedBudget(t *testing.T) {
	u := universe(5)
	g := NewGuided(u, 7)
	n := 0
	for {
		_, ok := g.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 7 {
		t.Errorf("produced %d, want budget 7", n)
	}
}

// walk proposes each descriptor of a universe once, in order, and
// counts what it is told.
type walk struct {
	universe       []fault.Descriptor
	next, observed int
}

func (w *walk) Next() (fault.Scenario, bool) {
	if w.next >= len(w.universe) {
		return fault.Scenario{}, false
	}
	w.next++
	return fault.Single(w.universe[w.next-1]), true
}

func (w *walk) Observe(fault.Outcome) { w.observed++ }

// TestDrive: Drive runs every scenario the strategy proposes, in order,
// and tells the strategy each outcome.
func TestDrive(t *testing.T) {
	u := universe(2)
	w := &walk{universe: u}
	outcomes := Drive(w, func(sc fault.Scenario) fault.Outcome { return fault.Outcome{Scenario: sc} })
	if len(outcomes) != len(u) || w.observed != len(u) {
		t.Fatalf("outcomes = %d, observed = %d, want %d", len(outcomes), w.observed, len(u))
	}
	for i, o := range outcomes {
		if o.Scenario.Faults[0].Name != u[i].Name {
			t.Errorf("outcome %d ran %s, want %s", i, o.Scenario.Faults[0].Name, u[i].Name)
		}
	}
}

// Property: every strategy respects its budget and produces valid
// scenarios.
func TestPropertyStrategiesProduceValidScenarios(t *testing.T) {
	f := func(seed int64, nSites, budget uint8) bool {
		u := universe(int(nSites%5) + 1)
		b := int(budget%40) + 1
		strategies := []Strategy{
			NewMonteCarlo(u, b, rand.New(rand.NewSource(seed))),
			NewGuided(u, b),
		}
		for _, s := range strategies {
			count := 0
			for {
				sc, ok := s.Next()
				if !ok {
					break
				}
				count++
				if sc.Validate() != nil {
					return false
				}
				s.Observe(fault.Outcome{Scenario: sc, Class: fault.Masked})
				if count > len(u)*len(u)*4+b {
					return false // runaway
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Regression: same-site pairs are unordered — {a,b} and {b,a} inject
// the identical fault set, so generatePairs must emit each set once.
func TestGuidedPairsDedupeUnordered(t *testing.T) {
	u := universe(2) // sites a,b × models stuck-at-0/1 = 4 descriptors
	g := NewGuided(u, 1000)
	seen := map[string]int{}
	pairs := 0
	for {
		sc, ok := g.Next()
		if !ok {
			break
		}
		if len(sc.Faults) == 1 {
			g.Observe(fault.Outcome{Scenario: sc, Class: fault.Masked})
			continue
		}
		pairs++
		// Canonical unordered fault-set key (names carry +0/+1 suffixes,
		// so key on target+model).
		a := sc.Faults[0].Target + "/" + sc.Faults[0].Model.String()
		b := sc.Faults[1].Target + "/" + sc.Faults[1].Model.String()
		if b < a {
			a, b = b, a
		}
		seen[a+"|"+b]++
		g.Observe(fault.Outcome{Scenario: sc, Class: fault.Masked})
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("fault set {%s} emitted %d times", k, n)
		}
	}
	// 2 same-site sets (one per site: the two models paired) + 4
	// cross-site sets (2×2 between a and b).
	if pairs != 6 {
		t.Errorf("pairs = %d, want 6 unique fault sets", pairs)
	}
}

// Regression: a single-fault Monte-Carlo sample must keep its universe
// name (no "#0" mangling) so outcomes map back to the fault list.
func TestMonteCarloSingleFaultKeepsName(t *testing.T) {
	u := universe(4)
	names := map[string]bool{}
	for _, d := range u {
		names[d.Name] = true
	}
	m := NewMonteCarlo(u, 30, rand.New(rand.NewSource(3)))
	for {
		sc, ok := m.Next()
		if !ok {
			break
		}
		if !names[sc.Faults[0].Name] {
			t.Fatalf("sampled name %q not in universe", sc.Faults[0].Name)
		}
	}
}

// Regression: a multi-fault scenario must not inject the same
// (target, model, start) twice — duplicates are resampled.
func TestMonteCarloMultiFaultResamplesDuplicates(t *testing.T) {
	u := universe(6)
	m := NewMonteCarlo(u, 100, rand.New(rand.NewSource(4)))
	m.MultiFault = 3
	for {
		sc, ok := m.Next()
		if !ok {
			break
		}
		type key struct {
			t string
			m fault.Model
			s sim.Time
		}
		seen := map[key]bool{}
		for _, d := range sc.Faults {
			k := key{d.Target, d.Model, d.Start}
			if seen[k] {
				t.Fatalf("scenario %s injects %s/%s@%v twice", sc.ID, d.Target, d.Model, d.Start)
			}
			seen[k] = true
		}
		// Multi-fault names still disambiguate per slot.
		for i, d := range sc.Faults {
			if want := "#" + string(rune('0'+i)); len(d.Name) < 2 || d.Name[len(d.Name)-2:] != want {
				t.Fatalf("fault %d name %q lacks %q suffix", i, d.Name, want)
			}
		}
	}
}

// TestGuidedTopSitesTable drives the severity ranking through the
// TopSites edge cases: 0 (no phase 2), 1 (worst site only), and a
// bound past the site count (everything pairs).
func TestGuidedTopSitesTable(t *testing.T) {
	cases := []struct {
		name      string
		topSites  int
		wantPairs int
		onlySite  string // non-empty: every pair fault must hit this site
	}{
		// Site "c" is reported SDC below; 2 models per site.
		{"zero", 0, 0, ""},
		{"one", 1, 1, "c"}, // the two models of site c paired once
		// 3 sites, all included: 3 same-site sets + 3 site pairs × 4 = 15.
		{"past-count", 10, 15, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u := universe(3)
			g := NewGuided(u, 1000)
			g.TopSites = tc.topSites
			pairs := 0
			for {
				sc, ok := g.Next()
				if !ok {
					break
				}
				if len(sc.Faults) == 1 {
					class := fault.Masked
					if sc.Faults[0].Target == "c" {
						class = fault.SDC
					}
					g.Observe(fault.Outcome{Scenario: sc, Class: class})
					continue
				}
				pairs++
				if tc.onlySite != "" {
					for _, d := range sc.Faults {
						if d.Target != tc.onlySite {
							t.Errorf("pair fault on %s, want only %s", d.Target, tc.onlySite)
						}
					}
				}
				g.Observe(fault.Outcome{Scenario: sc, Class: fault.Masked})
			}
			if pairs != tc.wantPairs {
				t.Errorf("pairs = %d, want %d", pairs, tc.wantPairs)
			}
		})
	}
}

// TestGuidedBudgetExhaustsMidPhase2 pins clean termination when the
// budget runs out between pair proposals.
func TestGuidedBudgetExhaustsMidPhase2(t *testing.T) {
	u := universe(3)
	budget := len(u) + 2 // phase 1 plus two pairs
	g := NewGuided(u, budget)
	n := 0
	for {
		sc, ok := g.Next()
		if !ok {
			break
		}
		n++
		g.Observe(fault.Outcome{Scenario: sc, Class: fault.SDC})
	}
	if n != budget {
		t.Fatalf("produced %d, want %d", n, budget)
	}
	if _, ok := g.Next(); ok {
		t.Fatal("Next after exhaustion must keep returning false")
	}
}
