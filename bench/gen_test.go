package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stressor"
)

// universeHashes builds the three sweep universes of a seed and
// fingerprints them the way journals do.
func universeHashes(t *testing.T, in *inputs) ([3]string, []byte) {
	t.Helper()
	capsProto, _, err := buildPrototype(false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer capsProto.Close()
	ecuProto, _, err := buildPrototype(true, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ecuProto.Close()
	return [3]string{
		stressor.UniverseHash(sweepUniverse(capsProto.Universe, in.CapsTimes, nil)),
		stressor.UniverseHash(sweepUniverse(capsProto.Universe, in.CapsTimes, in.Pulses)),
		stressor.UniverseHash(sweepUniverse(ecuProto.Universe, in.ECUTimes, nil)),
	}, bytes.Join(in.daemonSpecBodies(capsProto.Universe), []byte("\n"))
}

func TestSameSeedSameInputs(t *testing.T) {
	ha, sa := universeHashes(t, generate(7))
	hb, sb := universeHashes(t, generate(7))
	ho, so := universeHashes(t, generate(8))
	if ha != hb {
		t.Errorf("seed 7 twice gave universes %v and %v", ha, hb)
	}
	for i := range ha {
		if ha[i] == ho[i] {
			t.Errorf("seeds 7 and 8 gave the same universe %d (%s)", i, ha[i])
		}
	}
	if !bytes.Equal(sa, sb) {
		t.Error("seed 7 twice gave different daemon spec lists")
	}
	if bytes.Equal(sa, so) {
		t.Error("seeds 7 and 8 gave the same daemon spec list")
	}
	if n := bytes.Count(sa, []byte("\n")) + 1; n != daemonSpecs {
		t.Errorf("%d daemon specs, want %d", n, daemonSpecs)
	}
}

// TestSeedReachesOnlyTheStrategy pins where the seed may be read: the
// generator, the run record, and adaptive-novelty's strategy. Every
// other workload must see generated inputs only.
func TestSeedReachesOnlyTheStrategy(t *testing.T) {
	allowed := map[string]bool{
		"workloads.go:adaptive.setup": true, // the strategy seed is the input
		"main.go:bench.suite":         true, // recorded in the run record
		"compare.go:compareFiles":     true, // printed next to a failed run
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			where := file + ":" + fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				where = file + ":" + recv.(*ast.Ident).Name + "." + fn.Name.Name
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if ok && sel.Sel.Name == "Seed" && !allowed[where] {
					t.Errorf("%s: %s reads the seed at %s", file, fn.Name.Name, fset.Position(sel.Pos()))
				}
				return true
			})
		}
	}
}
