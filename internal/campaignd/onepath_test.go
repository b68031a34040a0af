package campaignd

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/stressor"
)

// TestOneSpecToCampaignPath keeps the spec→campaign path one path, in
// the spirit of the state-coverage lint: it parses the non-test source
// of every front-end command and of this package and fails, with the
// offending file:line, if a second stressor.Campaign literal appears —
// Spec.Build holds the only one — or if the CAPS prototype is
// configured or constructed anywhere but Spec.BuildRunner. A front-end
// that assembles its own campaign is how the CLI and the daemon came to
// disagree on the same spec (PR 18), and how capsim came to simulate
// campaigns Spec.Validate refuses.
func TestOneSpecToCampaignPath(t *testing.T) {
	dirs := []string{
		".", "../../cmd/capsim", "../../cmd/campmerge",
		"../../cmd/capsim-coord", "../../cmd/capsim-worker", "../../cmd/capsimd",
	}
	prototype := map[string]bool{"NewRunner": true, "Protected": true, "Unprotected": true, "NormalDriving": true, "CrashAt": true}
	fset := token.NewFileSet()
	var literals, strays []string
	for _, dir := range dirs {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			// The names this file knows the two packages by.
			local := map[string]string{}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if path != "repro/internal/caps" && path != "repro/internal/stressor" {
					continue
				}
				name := filepath.Base(path)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				local[name] = filepath.Base(path)
			}
			selects := func(n ast.Node, pkg string) (string, bool) {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return "", false
				}
				id, ok := sel.X.(*ast.Ident)
				return sel.Sel.Name, ok && local[id.Name] == pkg
			}
			for _, decl := range f.Decls {
				fn, _ := decl.(*ast.FuncDecl)
				inBuildRunner := dir == "." && fn != nil && fn.Name.Name == "BuildRunner" && fn.Recv != nil
				ast.Inspect(decl, func(n ast.Node) bool {
					if lit, ok := n.(*ast.CompositeLit); ok {
						if name, ok := selects(lit.Type, "stressor"); ok && name == "Campaign" {
							literals = append(literals, fset.Position(lit.Pos()).String())
						}
					}
					if name, ok := selects(n, "caps"); ok && prototype[name] && !inBuildRunner {
						strays = append(strays, fmt.Sprintf("%s: caps.%s", fset.Position(n.Pos()), name))
					}
					return true
				})
			}
		}
	}
	if len(literals) != 1 || !strings.HasPrefix(literals[0], "spec.go:") {
		t.Errorf("stressor.Campaign literals at %v; want exactly one, in Spec.Build (spec.go)", literals)
	}
	for _, s := range strays {
		t.Errorf("%s outside Spec.BuildRunner: the prototype has one construction site", s)
	}
}

// inspectNonTestSource calls visit on every node of every non-test Go
// file of the module outside bench/, which is kept as it was, and
// testdata.
func inspectNonTestSource(t *testing.T, visit func(fset *token.FileSet, n ast.Node)) {
	t.Helper()
	fset := token.NewFileSet()
	const root = "../.."
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			visit(fset, n)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNothingSetsTheRetiredCheckpointSwitches: Campaign.Checkpoints and
// Campaign.CheckpointTree select nothing — the Checkpointer alone does —
// and Spec's fields of the same names only parse. No non-test file
// names either field, so no caller can come to believe that setting one
// forks or that clearing one stops forking.
func TestNothingSetsTheRetiredCheckpointSwitches(t *testing.T) {
	retired := map[string]bool{"Checkpoints": true, "CheckpointTree": true}
	inspectNonTestSource(t, func(fset *token.FileSet, n ast.Node) {
		var name *ast.Ident
		switch n := n.(type) {
		case *ast.SelectorExpr:
			name = n.Sel
		case *ast.KeyValueExpr:
			name, _ = n.Key.(*ast.Ident)
		}
		if name != nil && retired[name.Name] {
			t.Errorf("%s: %s names a retired checkpoint switch", fset.Position(name.Pos()), name.Name)
		}
	})
}

// TestNothingWritesJSONL: every journal is created binary. No non-test
// file calls journal.CreateCodec, names journal.JSONL or sets the inert
// fabric.CoordConfig.Codec, so no front-end can come to pick a codec
// again; JSONL journals are only ever read, or appended to in place.
func TestNothingWritesJSONL(t *testing.T) {
	inspectNonTestSource(t, func(fset *token.FileSet, n ast.Node) {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && id.Name == "journal" && (n.Sel.Name == "CreateCodec" || n.Sel.Name == "JSONL") {
				t.Errorf("%s: journal.%s picks a journal codec", fset.Position(n.Pos()), n.Sel.Name)
			}
		case *ast.CompositeLit:
			typ := n.Type
			if sel, ok := typ.(*ast.SelectorExpr); ok {
				typ = sel.Sel
			}
			if id, ok := typ.(*ast.Ident); !ok || id.Name != "CoordConfig" {
				return
			}
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Codec" {
						t.Errorf("%s: a CoordConfig sets Codec", fset.Position(kv.Pos()))
					}
				}
			}
		}
	})
}

// TestSpecBuildForksFromTheRunner: every fixed-universe spec builds a
// campaign that forks from the runner's checkpoint tree — the bare spec
// and the spellings of the retired checkpoint switches alike, which
// build the very same campaign — and an adaptive one, whose source never
// forks, builds none.
func TestSpecBuildForksFromTheRunner(t *testing.T) {
	u := `"campaign":"p","universe":{"horizon":"30ms","inject":"5ms"},"workers":2`
	runner, err := mustSpec(t, `{`+u+`}`).BuildRunner()
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	build := func(raw string) *stressor.Campaign {
		t.Helper()
		c, _, err := mustSpec(t, raw).Build(runner)
		if err != nil {
			t.Fatal(err)
		}
		c.Run = nil // a method value, which DeepEqual never finds equal
		return c
	}
	bare := build(`{` + u + `}`)
	if bare.Checkpointer != stressor.Checkpointer(runner) {
		t.Fatalf("the bare spec builds Checkpointer %v, want the runner", bare.Checkpointer)
	}
	for _, knobs := range []string{`"checkpoints":true`, `"checkpoint_tree":true`, `"checkpoints":false,"checkpoint_tree":false`} {
		if c := build(`{` + u + `,` + knobs + `}`); !reflect.DeepEqual(c, bare) {
			t.Errorf("{%s} builds\n  %+v\nthe bare spec\n  %+v", knobs, c, bare)
		}
	}
	if c := build(`{` + u + `,"adaptive":true}`); c.Checkpointer != nil {
		t.Errorf("an adaptive spec builds Checkpointer %v, want none", c.Checkpointer)
	}
}

// docOf renders a finished campaign of spec the way the scheduler
// stores it, under a fixed run ID.
func docOf(t *testing.T, spec *Spec, scenarios []fault.Scenario, res *stressor.Result) string {
	t.Helper()
	sum := spec.Summary(len(scenarios), res)
	data, err := json.Marshal(BuildResultDoc("r", sum.Scenarios, res, sum))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// rebuildDoc is docOf for the rebuild oracle: the campaign Spec.Build
// assembles for raw, run on a runner that rebuilds the prototype for
// every scenario (ReuseOff, whose ForkTime declines every fork).
func rebuildDoc(t *testing.T, raw string) string {
	t.Helper()
	spec := mustSpec(t, raw)
	runner, err := spec.BuildRunner()
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	runner.ReuseOff = true
	c, scenarios, err := spec.Build(runner)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	return docOf(t, spec, scenarios, res)
}

// storedDoc is the result document the scheduler stored for run id, as
// docOf renders it.
func storedDoc(t *testing.T, sched *Scheduler, id string) string {
	t.Helper()
	stored, err := sched.Store().ReadDoc(id, DocResult)
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(strings.Replace(string(stored), `"id":"`+id+`"`, `"id":"r"`, 1))
}

// TestFrontEndsBuildTheSameCampaign: for every kind of spec, the
// campaign Spec.Build assembles, executed directly (what capsim does),
// is the result the Scheduler stores for the same bytes and — where the
// fabric takes the spec at all — the result of the campaign
// FabricResolver hands a worker: outcomes, tally and summary text, byte
// for byte. For a fixed universe it is also the rebuild oracle's.
func TestFrontEndsBuildTheSameCampaign(t *testing.T) {
	u := `"universe":{"horizon":"30ms","inject":"5ms"}`
	inline := strings.Replace(tinySpec, `"campaign":"tiny"`, `"campaign":"p"`, 1)
	sched, _ := newTestDaemon(t)
	resolve := FabricResolver(nil)
	for _, tc := range []struct {
		name, raw string
		fabric    bool
	}{
		{"plain", `{"campaign":"p",` + u + `,"workers":2}`, true},
		{"dedup", `{"campaign":"p",` + u + `,"dedup":true}`, true},
		{"ee+stride", `{"campaign":"p",` + u + `,"workers":2,"early_exit":true,"hash_stride":"5ms"}`, true},
		{"checkpoints", `{"campaign":"p",` + u + `,"workers":2,"checkpoints":true}`, true},
		{"checkpoint_tree", `{"campaign":"p",` + u + `,"workers":2,"checkpoint_tree":true}`, true},
		{"checkpoints off", `{"campaign":"p",` + u + `,"workers":2,"checkpoints":false,"checkpoint_tree":false}`, true},
		{"shard", `{"campaign":"p",` + u + `,"shard":"1/2"}`, false},
		{"inline", inline, true},
		{"adaptive", `{"campaign":"p",` + u + `,"adaptive":true,"novelty_budget":16,"novelty_seed":3,"workers":2}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := mustSpec(t, tc.raw)
			runner, err := spec.BuildRunner()
			if err != nil {
				t.Fatal(err)
			}
			defer runner.Close()
			c, scenarios, err := spec.Build(runner)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Execute(scenarios)
			if err != nil {
				t.Fatal(err)
			}
			want := docOf(t, spec, scenarios, res)
			if spec.Adaptive == (scenarios != nil) || len(res.Outcomes) == 0 {
				t.Fatalf("adaptive=%v built a list of %d and %d outcomes", spec.Adaptive, len(scenarios), len(res.Outcomes))
			}
			if !spec.Adaptive {
				if oracle := rebuildDoc(t, tc.raw); oracle != want {
					t.Errorf("the rebuild oracle yields\n  %s\nbuilt and executed directly\n  %s", oracle, want)
				}
			}

			if got := storedDoc(t, sched, runToCompletion(t, sched, tc.raw)); got != want {
				t.Errorf("the scheduler stored\n  %s\nbuilt and executed directly\n  %s", got, want)
			}

			resolved, err := resolve(json.RawMessage(tc.raw))
			if !tc.fabric {
				if err == nil {
					t.Error("the fabric resolver took a spec the fabric cannot run")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			fres, err := resolved.Campaign.Execute(resolved.Scenarios)
			if err != nil {
				t.Fatal(err)
			}
			if got := docOf(t, spec, resolved.Scenarios, fres); got != want {
				t.Errorf("the resolver's campaign yields\n  %s\nbuilt and executed directly\n  %s", got, want)
			}
		})
	}
}

// TestFabricResolverReleasesPrototypes: a long-lived worker's resolver
// keeps at most the cache's capacity of prototypes, not one per distinct
// prototype configuration for the life of the process. Six distinct
// horizons through a capacity of four close two runners; the
// worker only ever holds the Resolved it was handed last, and after
// every resolve that one's campaign still executes to the reference
// result, so an eviction never closes a runner in use; resolving the
// most recent key again is a cache hit.
func TestFabricResolverReleasesPrototypes(t *testing.T) {
	cache := newRunnerCache(defaultRunnerCacheCap, nil)
	resolve := fabricResolver(cache, nil)
	raw := func(ms int) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"universe":{"horizon":"%dms","inject":"5ms"},"workers":2,"checkpoint_tree":true}`, ms))
	}
	for i := 0; i < 6; i++ {
		spec := mustSpec(t, string(raw(20+i)))
		ref, err := spec.BuildRunner()
		if err != nil {
			t.Fatal(err)
		}
		c, scenarios, _ := spec.Build(ref)
		want, err := c.Execute(scenarios)
		ref.Close()
		if err != nil {
			t.Fatal(err)
		}

		resolved, err := resolve(raw(20 + i))
		if err != nil {
			t.Fatal(err)
		}
		got, err := resolved.Campaign.Execute(resolved.Scenarios)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := docOf(t, spec, scenarios, want), docOf(t, spec, resolved.Scenarios, got); a != b {
			t.Fatalf("after %d resolves the live campaign yields\n  %s\nwant\n  %s", i+1, b, a)
		}
		if wantEvicted := max(0, i+1-defaultRunnerCacheCap); cache.evicted != wantEvicted || len(cache.entries) != i+1-wantEvicted {
			t.Fatalf("after %d distinct prototypes: %d runners closed, %d held; want %d closed",
				i+1, cache.evicted, len(cache.entries), wantEvicted)
		}
	}
	if cache.evicted != 2 || cache.builds.Value() != 6 || cache.hits.Value() != 0 {
		t.Fatalf("six distinct prototypes: %d closed, %d built, %d hits; want 2, 6, 0", cache.evicted, cache.builds.Value(), cache.hits.Value())
	}
	if _, err := resolve(raw(25)); err != nil {
		t.Fatal(err)
	}
	if cache.builds.Value() != 6 || cache.hits.Value() != 1 {
		t.Errorf("resolving the latest prototype again: %d built, %d hits; want the seventh resolve to be a hit", cache.builds.Value(), cache.hits.Value())
	}
	cache.drain()
}
