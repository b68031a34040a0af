package coverage

import (
	"testing"
	"testing/quick"
)

func TestFaultSpaceCoverageAndHoles(t *testing.T) {
	fs := NewFaultSpace([]string{"s1", "s2"}, []string{"sa0", "sa1"})
	if fs.Coverage() != 0 {
		t.Error("fresh coverage nonzero")
	}
	fs.Record("s1", "sa0", 1)
	fs.Record("s1", "sa1", 4)
	if got := fs.Coverage(); got != 0.5 {
		t.Errorf("coverage = %v", got)
	}
	holes := fs.Holes()
	if len(holes) != 2 || holes[0].Site != "s2" {
		t.Errorf("holes = %v", holes)
	}
	fs.Record("s2", "sa0", 0)
	fs.Record("s2", "sa1", 6)
	if fs.Coverage() != 1 || len(fs.Holes()) != 0 {
		t.Error("closure not reached")
	}
	if fs.Injections() != 4 {
		t.Errorf("injections = %d", fs.Injections())
	}
}

func TestFaultSpaceWeakSpots(t *testing.T) {
	fs := NewFaultSpace([]string{"a", "b", "c"}, []string{"m"})
	fs.Record("a", "m", 2)
	fs.Record("b", "m", 6)
	fs.Record("c", "m", 4)
	ws := fs.WorstBySite()
	if len(ws) != 3 || ws[0].Site != "b" || ws[1].Site != "c" || ws[2].Site != "a" {
		t.Errorf("weak spots = %v", ws)
	}
}

func TestFaultSpaceAutoDeclare(t *testing.T) {
	fs := NewFaultSpace(nil, nil)
	fs.Record("new", "model", 1)
	if fs.Coverage() != 1 {
		t.Error("auto-declared cell not covered")
	}
	fs.Declare("other", "model")
	if fs.Coverage() != 0.5 {
		t.Errorf("coverage = %v", fs.Coverage())
	}
}

// Property: a fault space over n sites and m models reaches exactly
// closure after recording every combination.
func TestPropertyFaultSpaceClosure(t *testing.T) {
	f := func(n, m uint8) bool {
		ns := int(n%5) + 1
		nm := int(m%4) + 1
		sites := make([]string, ns)
		models := make([]string, nm)
		for i := range sites {
			sites[i] = string(rune('a' + i))
		}
		for i := range models {
			models[i] = string(rune('x' + i))
		}
		fs := NewFaultSpace(sites, models)
		for _, s := range sites {
			for _, mo := range models {
				fs.Record(s, mo, 0)
			}
		}
		return fs.Coverage() == 1 && len(fs.Holes()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
