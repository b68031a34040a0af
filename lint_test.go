package govp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The source lints (DESIGN §17) are rules over one load of the module:
// every package parsed and type-checked from source once, against the
// standard library's export data from one `go list -deps -export`. No
// lint walks the tree itself, and every rule matches objects, not
// names.

// lintModule is the module, parsed and type-checked.
type lintModule struct {
	fset *token.FileSet
	pkgs []*lintPkg // go list's dependency order
	info *types.Info
	std  types.Importer
	// testUses are the uses in the tests that can reach a helper
	// package: its own and those of the packages whose tests import it.
	testUses map[*ast.Ident]types.Object
	// testBase splits the file set: every non-test file was parsed
	// before it, every _test.go file at or after it.
	testBase token.Pos
}

// lintPkg is one package of the module.
type lintPkg struct {
	path         string
	dir          string // slash-separated, relative to the module root: "." for the root
	main, helper bool   // helper: only tests import it (clitest, stressortest, simtest)
	files        []*ast.File
	types        *types.Package
	// tests and xtests are the package's own _test.go files and those of
	// its external test package.
	tests, xtests []string
	// imports are the module packages the non-test files import,
	// testImports those the tests import.
	imports, testImports []string
}

// user reports whether p is only ever a user of the rest, never a
// lint's subject: bench/, the measuring instrument, stays as it is
// until ROADMAP item 1 unfreezes it.
func (p *lintPkg) user() bool { return p.dir == "bench" || strings.HasPrefix(p.dir, "bench/") }

func (m *lintModule) isTest(pos token.Pos) bool { return pos >= m.testBase }

// where is pos as file:line, the file relative to the module root.
func (m *lintModule) where(pos token.Pos) string {
	p := m.fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// pkg is the package in directory dir.
func (m *lintModule) pkg(t *testing.T, dir string) *lintPkg {
	t.Helper()
	for _, p := range m.pkgs {
		if p.dir == dir {
			return p
		}
	}
	t.Fatalf("no package in %s", dir)
	return nil
}

// object is what the package in dir declares as name; "T.x" is field
// or method x of type T.
func (m *lintModule) object(t *testing.T, dir, name string) types.Object {
	t.Helper()
	p := m.pkg(t, dir)
	typ, sel, dotted := strings.Cut(name, ".")
	obj := p.types.Scope().Lookup(typ)
	if obj != nil && dotted {
		obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, p.types, sel)
	}
	if obj == nil {
		t.Fatalf("%s declares no %s", dir, name)
	}
	return origin(obj)
}

// origin folds an instantiated generic object into its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

var (
	lintOnce sync.Once
	lintMod  *lintModule
	lintErr  error
)

// loadedModule is the module as it stands, loaded once for every lint.
func loadedModule(t *testing.T) *lintModule {
	t.Helper()
	lintOnce.Do(func() { lintMod, lintErr = loadModule([]string{"./..."}, nil) })
	if lintErr != nil {
		t.Fatal(lintErr)
	}
	return lintMod
}

// listed is what `go list -json` says of one package.
type listed struct {
	ImportPath, Dir, Name, Export      string
	Standard                           bool
	GoFiles, TestGoFiles, XTestGoFiles []string
	Imports, TestImports, XTestImports []string
}

// goList runs `go list -deps -export` on args from the module root.
// Export data comes from the build cache; nothing is fetched.
func goList(args ...string) ([]listed, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,Name,Export,Standard,GoFiles,TestGoFiles,XTestGoFiles,Imports,TestImports,XTestImports"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, stderr.Bytes())
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// loadModule loads the packages patterns name, and those they import,
// with overlay laid over their files: an entry replaces the file at
// that slash-separated path, relative to the module root, or adds it to
// the package in its directory.
func loadModule(patterns []string, overlay map[string]string) (*lintModule, error) {
	all, err := goList(patterns...)
	if err != nil {
		return nil, err
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	m := &lintModule{fset: token.NewFileSet(), testUses: map[*ast.Ident]types.Object{}, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	byPath, byDir := map[string]*lintPkg{}, map[string]*lintPkg{}
	export := map[string]string{}
	isModule := func(path string) bool { return path == "repro" || strings.HasPrefix(path, "repro/") }
	inModule := func(imps ...[]string) (out []string) {
		for _, list := range imps {
			for _, imp := range list {
				if isModule(imp) {
					out = append(out, imp)
				}
			}
		}
		return out
	}
	added := map[string]bool{} // overlaid files not on disk
	for name := range overlay {
		added[name] = true
	}
	var nonTest []string
	for _, l := range all {
		if l.Standard {
			export[l.ImportPath] = l.Export
			continue
		}
		rel, err := filepath.Rel(root, l.Dir)
		if err != nil {
			return nil, err
		}
		p := &lintPkg{path: l.ImportPath, dir: filepath.ToSlash(rel), main: l.Name == "main",
			tests: l.TestGoFiles, xtests: l.XTestGoFiles,
			imports: inModule(l.Imports), testImports: inModule(l.TestImports, l.XTestImports)}
		for _, names := range [][]string{l.GoFiles, l.TestGoFiles, l.XTestGoFiles} {
			for _, name := range names {
				delete(added, path.Join(p.dir, name))
			}
		}
		for _, name := range l.GoFiles {
			nonTest = append(nonTest, path.Join(p.dir, name))
		}
		m.pkgs = append(m.pkgs, p)
		byPath[p.path], byDir[p.dir] = p, p
	}
	for name := range added {
		switch p := byDir[path.Dir(name)]; {
		case p == nil:
		case !strings.HasSuffix(name, "_test.go"):
			nonTest = append(nonTest, name)
		case strings.HasSuffix(strings.Fields(overlay[name])[1], "_test"):
			p.xtests = append(p.xtests, path.Base(name))
		default:
			p.tests = append(p.tests, path.Base(name))
		}
	}
	sort.Strings(nonTest)
	for _, p := range m.pkgs {
		p.helper = !p.main && p.dir != "."
		for _, q := range m.pkgs {
			p.helper = p.helper && !slices.Contains(q.imports, p.path)
		}
	}
	// The standard packages only tests import come from a second list.
	var missing []string
	for _, l := range all {
		for _, imp := range append(append([]string(nil), l.TestImports...), l.XTestImports...) {
			if _, ok := export[imp]; !ok && !isModule(imp) && !slices.Contains(missing, imp) {
				missing = append(missing, imp)
			}
		}
	}
	if len(missing) > 0 {
		more, err := goList(missing...)
		if err != nil {
			return nil, err
		}
		for _, l := range more {
			export[l.ImportPath] = l.Export
		}
	}

	m.std = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(export[path])
	})
	parse := func(name string) (*ast.File, error) {
		var src any
		if s, ok := overlay[name]; ok {
			src = s
		}
		return parser.ParseFile(m.fset, name, src, parser.SkipObjectResolution)
	}
	for _, name := range nonTest {
		f, err := parse(name)
		if err != nil {
			return nil, err
		}
		p := byDir[path.Dir(name)]
		p.files = append(p.files, f)
	}
	m.testBase = token.Pos(m.fset.Base())
	importing := func(variant *types.Package) types.Importer {
		return importerFunc(func(path string) (*types.Package, error) {
			if variant != nil && variant.Path() == path {
				return variant, nil
			}
			if p := byPath[path]; p != nil {
				return p.types, nil
			}
			return m.std.Import(path)
		})
	}
	for _, p := range m.pkgs {
		conf := types.Config{Importer: importing(nil)}
		if p.types, err = conf.Check(p.path, m.fset, p.files, m.info); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.path, err)
		}
	}

	// The tests that can reach a helper package, each package's own
	// _test.go files checked with a second copy of its non-test files, as
	// go test compiles them. The packages such a test imports are not
	// recompiled against that copy, as go test would, so a value passed
	// through one can fail to type-check; the check records every use all
	// the same, and a real error fails the test build first.
	testInfo := &types.Info{Uses: m.testUses}
	tolerant := func(variant *types.Package) *types.Config {
		return &types.Config{Importer: importing(variant), Error: func(error) {}}
	}
	for _, p := range m.pkgs {
		reaches := p.helper
		for _, imp := range p.testImports {
			reaches = reaches || byPath[imp] != nil && byPath[imp].helper
		}
		if !reaches {
			continue
		}
		parseAll := func(names []string) ([]*ast.File, error) {
			var files []*ast.File
			for _, name := range names {
				f, err := parse(path.Join(p.dir, name))
				if err != nil {
					return nil, err
				}
				files = append(files, f)
			}
			return files, nil
		}
		tests, err := parseAll(p.tests)
		if err != nil {
			return nil, err
		}
		xtests, err := parseAll(p.xtests)
		if err != nil {
			return nil, err
		}
		var variant *types.Package
		if len(tests) > 0 {
			variant, _ = tolerant(nil).Check(p.path, m.fset, append(append([]*ast.File(nil), p.files...), tests...), testInfo)
		}
		if len(xtests) > 0 {
			tolerant(variant).Check(p.path+"_test", m.fset, xtests, testInfo)
		}
	}
	return m, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// reachDecl is one package-level declaration the reachability rule
// checks.
type reachDecl struct {
	obj        types.Object
	dir        string // the declaring package's
	key        string // "dir.Name", or "dir.Type.Method" for a method
	start, end token.Pos
	helper     bool // declared in a package only tests import
}

// declarations is every package-level func, method, type, var and const
// of the module's non-test files outside bench/, but main, init and _.
func (m *lintModule) declarations() map[types.Object]*reachDecl {
	decls := map[types.Object]*reachDecl{}
	for _, p := range m.pkgs {
		if p.user() {
			continue
		}
		add := func(id *ast.Ident, decl ast.Node) {
			obj := m.info.Defs[id]
			if obj == nil || id.Name == "_" {
				return
			}
			key := p.dir + "." + id.Name
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					t := recv.Type()
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					key = p.dir + "." + t.(*types.Named).Obj().Name() + "." + id.Name
				} else if id.Name == "init" || id.Name == "main" && p.main {
					return
				}
			}
			decls[obj] = &reachDecl{obj: obj, dir: p.dir, key: key, start: decl.Pos(), end: decl.End(), helper: p.helper}
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					add(d.Name, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var span ast.Node = spec
						if !d.Lparen.IsValid() {
							span = d
						}
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, span)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, span)
							}
						}
					}
				}
			}
		}
	}
	return decls
}

// dynamicInterfaces are the interfaces the standard library checks
// values for at run time: a method of one is reached by handing the
// value on, not by naming the interface.
var dynamicInterfaces = map[string][]string{
	"fmt":           {"Stringer", "GoStringer", "Formatter"},
	"encoding/json": {"Marshaler", "Unmarshaler"},
	"encoding":      {"TextMarshaler", "TextUnmarshaler"},
}

// ifaceUse is an interface with methods and where non-test code uses
// it; a use at token.NoPos is the language's or the standard library's.
type ifaceUse struct {
	iface *types.Interface
	at    []token.Pos
}

// usedInterfaces is every interface with methods that an expression of
// the module's non-test code has, or that a function it calls takes or
// returns — generic interfaces at their instantiations — and error and
// the dynamic ones. An interface's own declaration is not a use.
func (m *lintModule) usedInterfaces() ([]*ifaceUse, error) {
	var out []*ifaceUse
	seen := map[types.Type]*ifaceUse{}
	add := func(t types.Type, at token.Pos) {
		u, ok := seen[t]
		if !ok {
			if i, ok := t.Underlying().(*types.Interface); ok && i.NumMethods() > 0 {
				u = &ifaceUse{iface: i}
				out = append(out, u)
			}
			seen[t] = u
		}
		if u != nil {
			u.at = append(u.at, at)
		}
	}
	tuple := func(tup *types.Tuple, at token.Pos) {
		for i := 0; i < tup.Len(); i++ {
			t := tup.At(i).Type()
			if s, ok := t.(*types.Slice); ok {
				t = s.Elem() // a variadic parameter
			}
			add(t, at)
		}
	}
	declared := map[ast.Expr]bool{}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if s, ok := n.(*ast.TypeSpec); ok {
					declared[s.Type] = true
				}
				return true
			})
		}
	}
	for e, tv := range m.info.Types {
		if tv.Type == nil || m.isTest(e.Pos()) || declared[e] {
			continue
		}
		add(tv.Type, e.Pos())
		if sig, ok := tv.Type.(*types.Signature); ok {
			tuple(sig.Params(), e.Pos())
			tuple(sig.Results(), e.Pos())
		}
	}
	add(types.Universe.Lookup("error").Type(), token.NoPos)
	for path, names := range dynamicInterfaces {
		pkg, err := m.std.Import(path)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			add(pkg.Scope().Lookup(name).Type(), token.NoPos)
		}
	}
	return out, nil
}

// unreached is the reachability rule: a finding for every declaration
// that no non-test code uses and that allow gives no reason for, and
// one for every entry of allow that names no such declaration. Findings
// are keyed by the directory of the package they concern; a stale
// entry that names no package of the module is keyed "".
//
// A use inside the declaration itself or in a method's receiver does
// not count, and a package only tests import counts its tests' uses. A
// method is also reached when its receiver, or a type that embeds it,
// implements one of usedInterfaces(). A use of an interface inside one
// of the methods implementing it counts only once that method is
// reached some other way. Struct fields are the field rules'
// (deadFields).
func (m *lintModule) unreached(allow map[string]string) (map[string][]string, error) {
	decls := m.declarations()
	// A method's receiver names its type without using it.
	receivers := map[*ast.Ident]bool{}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
					ast.Inspect(fn.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			}
		}
	}
	reached := map[types.Object]bool{}
	for id, obj := range m.info.Uses {
		if d := decls[origin(obj)]; d != nil && !receivers[id] && (id.Pos() < d.start || id.Pos() >= d.end) {
			reached[d.obj] = true
		}
	}
	// A test names the copy of a declaration its package's test build
	// checked: another object at the same position.
	helpers := map[token.Pos]*reachDecl{}
	for _, d := range decls {
		if d.helper {
			helpers[d.obj.Pos()] = d
		}
	}
	for id, obj := range m.testUses {
		if d := helpers[origin(obj).Pos()]; d != nil && m.isTest(id.Pos()) {
			reached[d.obj] = true
		}
	}

	ifaces, err := m.usedInterfaces()
	if err != nil {
		return nil, err
	}
	// The module's named types, generic ones at their instantiations.
	var named []types.Type
	for _, p := range m.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
					named = append(named, n)
				}
			}
		}
	}
	for id, inst := range m.info.Instances {
		if n, ok := inst.Type.(*types.Named); ok && !m.isTest(id.Pos()) {
			named = append(named, n)
		}
	}
	type methodSet struct {
		ptr  types.Type
		mset *types.MethodSet
	}
	var msets []methodSet
	for _, t := range named {
		if ptr := types.NewPointer(t); !types.IsInterface(t) {
			if mset := types.NewMethodSet(ptr); mset.Len() > 0 {
				msets = append(msets, methodSet{ptr, mset})
			}
		}
	}
	// An interface is used only through an expression outside the
	// methods it would reach: a type assertion inside its own
	// implementations keeps nothing alive until one of them is reached
	// some other way, so the interfaces are marked to a fixpoint.
	type ifaceSels struct {
		at   []token.Pos
		sels []*types.Selection
	}
	var pending []ifaceSels
	for _, u := range ifaces {
		var sels []*types.Selection
	next:
		for _, ms := range msets {
			own := make([]*types.Selection, u.iface.NumMethods())
			for k := range own {
				fn := u.iface.Method(k)
				if own[k] = ms.mset.Lookup(fn.Pkg(), fn.Name()); own[k] == nil {
					continue next
				}
			}
			if types.Implements(ms.ptr, u.iface) {
				sels = append(sels, own...)
			}
		}
		pending = append(pending, ifaceSels{u.at, sels})
	}
	for marked := true; marked; {
		marked = false
		pending = slices.DeleteFunc(pending, func(u ifaceSels) bool {
			used := slices.ContainsFunc(u.at, func(at token.Pos) bool {
				return !slices.ContainsFunc(u.sels, func(sel *types.Selection) bool {
					d := decls[origin(sel.Obj())]
					return d != nil && !reached[d.obj] && at >= d.start && at < d.end
				})
			})
			if used {
				for _, sel := range u.sels {
					reached[origin(sel.Obj())] = true
				}
				marked = true
			}
			return used
		})
	}

	var out []*reachDecl
	matched := map[string]bool{}
	for _, d := range decls {
		if reached[d.obj] {
			continue
		}
		if _, ok := allow[d.key]; ok {
			matched[d.key] = true
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	findings := map[string][]string{}
	for _, d := range out {
		n := m.fset.Position(d.end).Line - m.fset.Position(d.start).Line + 1
		unit := "lines"
		if n == 1 {
			unit = "line"
		}
		who := "non-test code"
		if d.helper {
			who = "test"
		}
		findings[d.dir] = append(findings[d.dir], fmt.Sprintf("%s: %s (%d %s) is reached by no %s", m.where(d.obj.Pos()), d.key, n, unit, who))
	}
	m.stale(allow, matched, findings, "unreached declaration")
	return findings, nil
}

// stale adds to findings one for every entry of allow that matched
// nothing, under the package whose directory is the longest prefix of
// its key, or "" when none is.
func (m *lintModule) stale(allow map[string]string, matched map[string]bool, findings map[string][]string, what string) {
	var stale []string
	for key := range allow {
		if !matched[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		dir := ""
		for _, p := range m.pkgs {
			if strings.HasPrefix(key, p.dir+".") && len(p.dir) > len(dir) {
				dir = p.dir
			}
		}
		findings[dir] = append(findings[dir], fmt.Sprintf("allow-list entry %s matches no %s; drop it", key, what))
	}
}

// reachAllowed gives, for each declaration that no non-test code
// reaches, why it stays. A hook that only another package's tests reach
// cannot move into a _test.go file: that file is not in their build.
var reachAllowed = map[string]string{
	"internal/ecu.CPU.Run":                "the core loop in its thread form: corerun_test.go holds the checkpointable coreRunner the runner drives to it, store for store and instant for instant",
	"internal/journal.Writer.Appends":     "test hook: stressor and fabric tests count what a resume or a flush appended",
	"internal/obs.TraceRecorder.Len":      "test hook: sim, stressor, mutation and experiments tests count the spans a run recorded",
	"internal/sim.Event.NotifyImmediate":  "SystemC immediate notification, pinned by conformance_test.go; stressor's torn-slot toy fans out through it",
	"internal/sim.Signal.Force":           "the saboteur injection hook (Sec. 3.3), reached only by tests: stressor's fork-window toy injects through it from another package and sim's conformance vectors pin it",
	"internal/sim.Signal.Release":         "Force's inverse (Force)",
	"internal/sim.NewTracer":              "VCD waveform output: the snapshot and root tests compare runs by their VCD dumps",
	"internal/sim.Kernel.AttachTracer":    "VCD waveform output (NewTracer)",
	"internal/sim.TraceSignal":            "VCD waveform output (NewTracer)",
	"internal/sim.Tracer.Err":             "VCD waveform output (NewTracer)",
	"internal/stressor.session.Establish": "test hook: caps pins the steady-state establish at 0 allocs through an interface assertion",
	"internal/stressor.session.Prototype": "test hook: caps and ecu slot-pool tests read a session's prototype through an interface assertion",
	"internal/tlm.SyncAccepted":           "TLM-2.0's TLM_ACCEPTED: the zero Sync, which SyncUpdated and SyncCompleted count from",
	"internal/tlm.Memory.Peek":            "test hook: caps, ecu and fault tests read memory contents without timing or defects",
}

// TestEveryDeclarationIsReached: no package-level declaration of the
// module is there for its own tests alone. One that no non-test code
// uses is deleted, moved into a _test.go file or listed in reachAllowed
// with the reason it stays. Each package the rule checks is a subtest.
func TestEveryDeclarationIsReached(t *testing.T) {
	m := loadedModule(t)
	findings, err := m.unreached(reachAllowed)
	if err != nil {
		t.Fatal(err)
	}
	reportByPackage(t, m, findings)
}

// reportByPackage fails a subtest for each package a lint checks with
// the findings keyed by its directory, and the test with the rest.
func reportByPackage(t *testing.T, m *lintModule, findings map[string][]string) {
	for _, p := range m.pkgs {
		if p.user() {
			continue
		}
		t.Run(p.dir, func(t *testing.T) {
			for _, f := range findings[p.dir] {
				t.Error(f)
			}
		})
		delete(findings, p.dir)
	}
	for _, fs := range findings {
		for _, f := range fs {
			t.Error(f)
		}
	}
}

// fieldDecl is one struct field the field rules check.
type fieldDecl struct {
	obj *types.Var
	dir string // the declaring package's
	key string // "dir.Type.field"; a nested struct type adds its field's name
}

// fields is every named field of the struct types in the non-test files
// of the module outside bench/ and the test-helper packages, but those
// of a struct with a tag: a codec sets and reads them by reflection.
func (m *lintModule) fields() map[*types.Var]*fieldDecl {
	out := map[*types.Var]*fieldDecl{}
	for _, p := range m.pkgs {
		if p.user() || p.helper {
			continue
		}
		var walk func(n ast.Node, prefix string)
		walk = func(n ast.Node, prefix string) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					walk(n.Type, prefix+"."+n.Name.Name)
					return false
				case *ast.StructType:
					tagged := false
					for _, f := range n.Fields.List {
						tagged = tagged || f.Tag != nil
					}
					for _, f := range n.Fields.List {
						for _, id := range f.Names {
							if v, ok := m.info.Defs[id].(*types.Var); ok && !tagged && id.Name != "_" {
								out[v] = &fieldDecl{obj: v, dir: p.dir, key: prefix + "." + id.Name}
							}
							walk(f.Type, prefix+"."+id.Name)
						}
						if f.Names == nil {
							walk(f.Type, prefix)
						}
					}
					return false
				}
				return true
			})
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					walk(d, p.dir+"."+d.Name.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if s, ok := spec.(*ast.ValueSpec); ok {
							walk(s, p.dir+"."+s.Names[0].Name)
						} else {
							walk(spec, p.dir)
						}
					}
				}
			}
		}
	}
	return out
}

// captureBodies is the body of every SnapshotState and RestoreState
// method of the checked packages and of the functions of its package
// such a body calls, at any depth.
func (m *lintModule) captureBodies() map[ast.Node]bool {
	funcs := map[types.Object]*ast.FuncDecl{}
	var todo []*ast.FuncDecl
	for _, p := range m.pkgs {
		if p.user() || p.helper {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
					funcs[m.info.Defs[fn.Name]] = fn
					if fn.Recv != nil && (fn.Name.Name == "SnapshotState" || fn.Name.Name == "RestoreState") {
						todo = append(todo, fn)
					}
				}
			}
		}
	}
	bodies := map[ast.Node]bool{}
	for len(todo) > 0 {
		fn := todo[0]
		todo = todo[1:]
		bodies[fn.Body] = true
		pkg := m.info.Defs[fn.Name].Pkg()
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && m.info.Uses[id] != nil {
				if d := funcs[origin(m.info.Uses[id])]; d != nil && !bodies[d.Body] && m.info.Uses[id].Pkg() == pkg {
					bodies[d.Body] = true
					todo = append(todo, d)
				}
			}
			return true
		})
	}
	return bodies
}

// liveFields classifies every use of a checked field in non-test code,
// bench/ included, and returns the fields read and those set.
//
// Set: an assignment, inc/dec or op-assign to the field, a composite
// literal that initialises it, keyed or not, taking its address, slicing
// it, indexing it as an assignment's target, and calling a pointer
// method on it (a mutex's Lock, an atomic's Add). Assigning into a
// struct or array the field holds, or into an element of its slice or
// map, sets it too.
//
// Read: every other use, but as an assignment's target, in its own
// update (x.f = append(x.f, …), x.f = x.f[:n]) and as clear's argument.
// A copy inside a capture body reads its source only if the field it
// is copied into is read.
func (m *lintModule) liveFields(fields map[*types.Var]*fieldDecl) (read, set map[*types.Var]bool) {
	read, set = map[*types.Var]bool{}, map[*types.Var]bool{}
	field := func(id *ast.Ident) *types.Var {
		if v, ok := m.info.Uses[id].(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	notRead := map[*ast.Ident]bool{}
	// target marks the field e names as set, and every field whose
	// storage holds e's; write marks e as an assignment's target.
	var target func(e ast.Expr, write bool) *types.Var
	target = func(e ast.Expr, write bool) *types.Var {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			if _, ok := m.info.TypeOf(x.X).Underlying().(*types.Pointer); !ok {
				return target(x.X, write)
			}
		case *ast.SelectorExpr:
			v := field(x.Sel)
			if v == nil {
				return nil
			}
			set[v] = true
			notRead[x.Sel] = notRead[x.Sel] || write
			if !m.info.Selections[x].Indirect() {
				target(x.X, write)
			}
			return v
		}
		return nil
	}
	// copied marks the fields rhs copies into the checked fields to as
	// not read yet: their reads wait on the targets'.
	copies := map[*types.Var][]*types.Var{}
	var copied func(rhs ast.Expr, to []*types.Var)
	copied = func(rhs ast.Expr, to []*types.Var) {
		for _, dst := range to {
			if fields[dst] == nil {
				return
			}
		}
		ast.Inspect(rhs, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IndexExpr:
				copied(n.X, to) // the index itself is read
				return false
			case *ast.SelectorExpr:
				if src := field(n.Sel); src != nil && fields[src] != nil && !notRead[n.Sel] {
					notRead[n.Sel] = true
					for _, dst := range to {
						copies[dst] = append(copies[dst], src)
					}
				}
			}
			return true
		})
	}
	// readAll marks every field of a struct that a map hashes as a key
	// or == compares as read.
	var readAll func(t types.Type)
	readAll = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if v := u.Field(i).Origin(); !read[v] {
					read[v] = true
					readAll(v.Type())
				}
			}
		case *types.Array:
			readAll(u.Elem())
		}
	}
	captures := m.captureBodies()
	for _, p := range m.pkgs {
		if p.helper {
			continue
		}
		for _, f := range p.files {
			var capture ast.Node // the capture body n is inside
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					return true
				}
				if capture != nil && n.Pos() >= capture.End() {
					capture = nil
				}
				if captures[n] {
					capture = n
				}
				switch n := n.(type) {
				case *ast.Ident:
					if v := field(n); v != nil && !notRead[n] {
						read[v] = true
					}
				case *ast.AssignStmt:
					if n.Tok == token.DEFINE {
						return true
					}
					own := map[string]bool{}
					to := make([]*types.Var, len(n.Lhs))
					for i, lhs := range n.Lhs {
						to[i] = target(lhs, true)
						own[types.ExprString(lhs)] = true
					}
					for i, rhs := range n.Rhs {
						ast.Inspect(rhs, func(r ast.Node) bool {
							if sel, ok := r.(*ast.SelectorExpr); ok && own[types.ExprString(sel)] {
								notRead[sel.Sel] = true
							}
							return true
						})
						if capture != nil {
							if len(n.Lhs) == len(n.Rhs) {
								copied(rhs, to[i:i+1])
							} else {
								copied(rhs, to)
							}
						}
					}
				case *ast.MapType:
					readAll(m.info.TypeOf(n.Key))
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(m.info.TypeOf(n.X))
					}
				case *ast.IncDecStmt:
					target(n.X, true)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						for _, e := range []ast.Expr{n.Key, n.Value} {
							if e != nil {
								target(e, true)
							}
						}
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target(n.X, false)
					}
				case *ast.SliceExpr:
					target(n.X, false)
				case *ast.CallExpr:
					switch fun := ast.Unparen(n.Fun).(type) {
					case *ast.Ident:
						if b, ok := m.info.Uses[fun].(*types.Builtin); ok && b.Name() == "clear" {
							if sel, ok := ast.Unparen(n.Args[0]).(*ast.SelectorExpr); ok {
								notRead[sel.Sel] = true
							}
						}
					case *ast.SelectorExpr:
						if s := m.info.Selections[fun]; s != nil && s.Kind() == types.MethodVal {
							_, byPtr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
							if _, isPtr := m.info.TypeOf(fun.X).Underlying().(*types.Pointer); byPtr && !isPtr {
								target(fun.X, false)
							}
						}
					}
				case *ast.CompositeLit:
					t := m.info.TypeOf(n).Underlying()
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem().Underlying()
					}
					st, ok := t.(*types.Struct)
					for i := 0; ok && i < len(n.Elts); i++ {
						if kv, isKV := n.Elts[i].(*ast.KeyValueExpr); isKV {
							if v := field(kv.Key.(*ast.Ident)); v != nil {
								set[v] = true
								notRead[kv.Key.(*ast.Ident)] = true
							}
						} else {
							set[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for dst, srcs := range copies {
			for _, src := range srcs {
				if read[dst] && !read[src] {
					read[src], changed = true, true
				}
			}
		}
	}
	return read, set
}

// deadFields is the field rules: a finding for every checked field that
// no non-test code reads or none sets and that allow gives no reason
// for, and one for every entry of allow that names no such field.
// Findings are keyed like unreached's.
func (m *lintModule) deadFields(allow map[string]string) map[string][]string {
	fields := m.fields()
	read, set := m.liveFields(fields)
	var dead []*fieldDecl
	matched := map[string]bool{}
	for v, d := range fields {
		if read[v] && set[v] {
			continue
		}
		if _, ok := allow[d.key]; ok {
			matched[d.key] = true
			continue
		}
		dead = append(dead, d)
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].obj.Pos() < dead[j].obj.Pos() })
	findings := map[string][]string{}
	for _, d := range dead {
		var what []string
		if !read[d.obj] {
			what = append(what, "read")
		}
		if !set[d.obj] {
			what = append(what, "set")
		}
		findings[d.dir] = append(findings[d.dir], fmt.Sprintf("%s: %s is %s by no non-test code", m.where(d.obj.Pos()), d.key, strings.Join(what, " or ")))
	}
	m.stale(allow, matched, findings, "unread or unset field")
	return findings
}

// fieldAllowed gives, for each field that no non-test code reads or
// none sets, why it stays.
var fieldAllowed = map[string]string{
	"internal/stressor.Campaign.Checkpoints":     "retired switch bench/ still sets (retiredAPI); goes with ROADMAP 1(a)",
	"internal/stressor.Campaign.CheckpointTree":  "retired switch bench/ still sets (retiredAPI); goes with ROADMAP 1(a)",
	"internal/stressor.Campaign.EarlyExit":       "retired switch bench/ still sets (retiredAPI); goes with ROADMAP 1(a)",
	"internal/fabric.CoordConfig.Codec":          "retired switch bench/ still sets (retiredAPI); goes with ROADMAP 1(a)",
	"internal/stressor.goldenNodes.max":          "test seam: tree_test.go and window_test.go shrink the node budget to force eviction",
	"internal/campaignd.Config.ProgressInterval": "test seam: the daemon's tests set -1 so every progress event reaches /events",
	"internal/mutation.Options.ProgressInterval": "test seam: mutation_obs_test.go sets -1 so every progress update is delivered",
	"internal/campaignd.runnerCache.evicted":     "TestFabricResolverReleasesPrototypes counts the runners the bounded cache closed",
	"internal/rtl.ALU.Carry":                     "the ALU's carry output: TestALUMatchesGolden and TestPropertyALUEquivalence check the gates behind it",
	"internal/rtl.ALU.Zero":                      "the ALU's zero output (ALU.Carry)",
	"internal/mdl.Program.NumNodes":              "TestPrintRoundTrip and TestPropertyNodeIDsDense check the parser's node numbering against it",
	"internal/mutation.MutantResult.KillingTest": "TestKilledByErrorVerdict and TestQualifyWithWorkersDeterministic check which test killed a mutant",
	"internal/symex.PathResult.Output":           "the concrete result of a concolic run: TestRunRecordsPathAndOutput and TestEvalSymMatchesInterpreter check the interpreter through it",
	"internal/symex.PathResult.Err":              "the concrete run's error: TestRunErrors and TestRunawayPathBudget check it",
	"internal/symex.Exploration.Covered":         "statement coverage of a search: the Explore tests check it through CoverageFraction",
}

// TestEveryFieldIsLive: no field of the module is state nothing reads or
// a knob nothing sets (DESIGN §17). Every run captures, restores and
// steps through model state, so a field no output reads is pure cost,
// and a knob nothing sets is its zero value in every branch that reads
// it. Such a field is deleted, or listed in fieldAllowed with the
// reason it stays. Each package the rules check is a subtest.
func TestEveryFieldIsLive(t *testing.T) {
	m := loadedModule(t)
	reportByPackage(t, m, m.deadFields(fieldAllowed))
}

var (
	seededOnce sync.Once
	seededMod  *lintModule
	seededErr  error
)

// seededModule is a copy of part of the module, in memory, with code
// that each rule must catch — or must let pass — seeded into it. It
// loads only simtest, an example that uses caps and what they import, so
// most of the module reads as unreached there; each case checks its own
// identifier.
func seededModule(t *testing.T) *lintModule {
	t.Helper()
	seededOnce.Do(func() {
		seededMod, seededErr = loadModule([]string{"./examples/caps_airbag", "./internal/sim/simtest"}, seededOverlay)
	})
	if seededErr != nil {
		t.Fatal(seededErr)
	}
	return seededMod
}

var seededOverlay = map[string]string{
	"internal/caps/seeded.go": `package caps

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stressor"
)

func SeededExport() {}

func seededOrphan() int {
	return 1
}

// seededModel is reached only as a stressor.Model[*System, int], an
// instantiation nothing else makes.
type seededModel struct{}

func (seededModel) Build(*sim.Kernel) (*System, *fault.Registry)      { return nil, nil }
func (seededModel) Observe(*System) analysis.Observation              { return analysis.Observation{} }
func (seededModel) Golden(*System, analysis.Observation) error        { return nil }
func (seededModel) Record(*int, *System, int, *analysis.Observation) {}
func (seededModel) HistoryKey(*System) uint64                        { return 0 }
func (seededModel) Converged(*System, *int, int) analysis.Observation { return analysis.Observation{} }

var _, _ = stressor.NewHost[*System, int]("seeded", seededModel{}, 1)

// seededName's String is reached only through fmt.
type seededName int

func (seededName) String() string { return "seeded" }

var _ = fmt.Sprint(seededName(0))

// seededOwn is named only by its own method's receiver.
type seededOwn struct{}

func (seededOwn) String() string { return "own" }
`,
	"internal/sim/simtest/seeded.go": "package simtest\n\nfunc SeededHelper() {}\n",
	"internal/caps/seeded_retired.go": `package caps

import "repro/internal/journal"

var _ = journal.JSONL

// seededSwitches has a field named like a retired one.
type seededSwitches struct{ EarlyExit bool }

var _ = seededSwitches{EarlyExit: true}.EarlyExit
`,
	"internal/caps/seeded_fields.go": `package caps

import (
	"flag"
	"sync"

	"repro/internal/sim"
)

// seededHop is named only inside the methods that implement it.
type seededHop interface{ seededNext() int }

type seededHopA struct{ next any }

func (a seededHopA) seededNext() int {
	if h, ok := a.next.(seededHop); ok {
		return h.seededNext()
	}
	return 0
}

type seededHopB struct{}

func (seededHopB) seededNext() int { return 1 }

var _ = seededHopA{next: seededHopB{}}

// seededCounter's count is copied by capture and restore, and read by
// nothing else.
type seededCounter struct{ hits int }

type seededCounterState struct{ hits int }

func (c *seededCounter) seededStep() { c.hits++ }

func (c *seededCounter) SnapshotState(prev any) any {
	st, _ := prev.(*seededCounterState)
	if st == nil {
		st = &seededCounterState{}
	}
	st.hits = c.hits
	return st
}

func (c *seededCounter) RestoreState(state any) { c.hits = state.(*seededCounterState).hits }

// seededLog only ever appends to itself.
type seededLog struct{ lines []string }

func (l *seededLog) seededAdd(s string) { l.lines = append(l.lines, s) }

// seededKnobs.Verbose is read in a branch and set by nothing.
type seededKnobs struct{ Verbose bool }

func (k seededKnobs) seededLevel() int {
	if k.Verbose {
		return 2
	}
	return 1
}

var _ = seededKnobs{}.seededLevel()

// seededWire is a codec's: its tags say so.
type seededWire struct {
	ID   int ` + "`json:\"id\"`" + `
	Note string
}

// seededGuard's mutex is set by its pointer methods.
type seededGuard struct {
	mu sync.Mutex
	n  int
}

func (g *seededGuard) seededBump() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	return g.n
}

// seededOptions.verbose is bound to a flag through its address.
type seededOptions struct{ verbose bool }

func seededFlags(fs *flag.FlagSet) *seededOptions {
	o := &seededOptions{}
	fs.BoolVar(&o.verbose, "v", false, "")
	return o
}

// seededHashed.seed is read by its digest alone.
type seededHashed struct{ seed uint64 }

func (s *seededHashed) HashState(h *sim.StateHash) { h.U64(s.seed) }

var _ = seededHashed{seed: 1}

// seededFwd is named only inside seededFwdA.seededGet, which non-test
// code calls directly, so its assertion runs and reaches seededFwdB.
type seededFwd interface{ seededGet() int }

type seededFwdA struct{ next any }

func (a seededFwdA) seededGet() int {
	if f, ok := a.next.(seededFwd); ok {
		return f.seededGet()
	}
	return 0
}

type seededFwdB struct{}

func (seededFwdB) seededGet() int { return 2 }

var _ = seededFwdA{next: seededFwdB{}}.seededGet()
`,
	"internal/stressor/seeded_retired.go": `package stressor

func seededEarlyExit(c *Campaign) bool { return c.EarlyExit }
`,
}

// seededCase is what a rule must report on one identifier of the seeded
// module.
type seededCase struct {
	key  string // what a finding names
	want string // the finding, "" when there must be none
}

// check fails unless findings name tc.key exactly in tc.want, or not at
// all when tc.want is "".
func (tc seededCase) check(t *testing.T, findings []string) {
	t.Helper()
	var got []string
	for _, f := range findings {
		if strings.Contains(f, " "+tc.key+" ") {
			got = append(got, f)
		}
	}
	switch {
	case tc.want == "" && len(got) > 0:
		t.Errorf("%s must pass, yet: %q", tc.key, got)
	case tc.want != "" && (len(got) != 1 || got[0] != tc.want):
		t.Errorf("%s: findings %q, want %q", tc.key, got, tc.want)
	}
}

// TestReachabilityRuleOnSeededCode: the rule fails on each kind of
// unreached declaration seeded into the module — methods that only an
// assertion inside their own bodies reaches through an interface among
// them — and not on methods reached only through an interface, the
// implementer an assertion in a directly called forwarder reaches
// among them.
func TestReachabilityRuleOnSeededCode(t *testing.T) {
	m := seededModule(t)
	byDir, err := m.unreached(map[string]string{"internal/caps.SeededStale": "seeded"})
	if err != nil {
		t.Fatal(err)
	}
	var findings []string
	for _, fs := range byDir {
		findings = append(findings, fs...)
	}
	for _, tc := range []seededCase{
		{"internal/caps.SeededExport", "internal/caps/seeded.go:12: internal/caps.SeededExport (1 line) is reached by no non-test code"},
		{"internal/caps.seededOrphan", "internal/caps/seeded.go:14: internal/caps.seededOrphan (3 lines) is reached by no non-test code"},
		{"internal/caps.SeededStale", "allow-list entry internal/caps.SeededStale matches no unreached declaration; drop it"},
		{"internal/sim/simtest.SeededHelper", "internal/sim/simtest/seeded.go:3: internal/sim/simtest.SeededHelper (1 line) is reached by no test"},
		{"internal/caps.seededModel.Record", ""},
		{"internal/caps.seededModel.Converged", ""},
		{"internal/caps.seededName.String", ""},
		{"internal/caps.seededOwn", "internal/caps/seeded.go:39: internal/caps.seededOwn (1 line) is reached by no non-test code"},
		{"internal/caps.seededHopA.seededNext", "internal/caps/seeded_fields.go:15: internal/caps.seededHopA.seededNext (6 lines) is reached by no non-test code"},
		{"internal/caps.seededHopB.seededNext", "internal/caps/seeded_fields.go:24: internal/caps.seededHopB.seededNext (1 line) is reached by no non-test code"},
		{"internal/caps.seededFwdA.seededGet", ""},
		{"internal/caps.seededFwdB.seededGet", ""},
	} {
		t.Run(tc.key, func(t *testing.T) { tc.check(t, findings) })
	}
}

// TestFieldRulesOnSeededCode: the field rules fail on each kind of
// dead field seeded into the module — a count only capture and restore
// copy, a log only ever appended to, a knob read in a branch and set by
// nothing — and on a stale allow-list entry, and not on the fields a
// codec, a pointer method, a flag or a digest keeps live.
func TestFieldRulesOnSeededCode(t *testing.T) {
	m := seededModule(t)
	var findings []string
	for _, fs := range m.deadFields(map[string]string{"internal/caps.seededStale.x": "seeded"}) {
		findings = append(findings, fs...)
	}
	for _, tc := range []seededCase{
		{"internal/caps.seededCounter.hits", "internal/caps/seeded_fields.go:30: internal/caps.seededCounter.hits is read by no non-test code"},
		{"internal/caps.seededCounterState.hits", "internal/caps/seeded_fields.go:32: internal/caps.seededCounterState.hits is read by no non-test code"},
		{"internal/caps.seededLog.lines", "internal/caps/seeded_fields.go:48: internal/caps.seededLog.lines is read by no non-test code"},
		{"internal/caps.seededKnobs.Verbose", "internal/caps/seeded_fields.go:53: internal/caps.seededKnobs.Verbose is set by no non-test code"},
		{"internal/caps.seededStale.x", "allow-list entry internal/caps.seededStale.x matches no unread or unset field; drop it"},
		{"internal/caps.seededWire.ID", ""},
		{"internal/caps.seededWire.Note", ""},
		{"internal/caps.seededGuard.mu", ""},
		{"internal/caps.seededOptions.verbose", ""},
		{"internal/caps.seededHashed.seed", ""},
	} {
		t.Run(tc.key, func(t *testing.T) { tc.check(t, findings) })
	}
}

// TestRetiredRuleOnSeededCode: the retired-API rule fails on a use
// seeded into the declaring package, on one in a package off the
// entry's may list and on a may package that names the object no more,
// and not on a field of another type that shares a retired name.
func TestRetiredRuleOnSeededCode(t *testing.T) {
	m := seededModule(t)
	table := []retiredEntry{
		{"internal/stressor", "Campaign.EarlyExit", nil, "seeded"},
		{"internal/journal", "JSONL", []string{"internal/journal"}, "seeded"},
		{"internal/journal", "CreateCodec", []string{"internal/journal", "internal/caps"}, "seeded"},
	}
	findings := m.retiredNames(t, table)
	for i, want := range [][]string{
		{"internal/stressor/seeded_retired.go:3: names the retired stressor.Campaign.EarlyExit: seeded"},
		{"internal/caps/seeded_retired.go:5: names the retired journal.JSONL: seeded"},
		{"internal/caps names no journal.CreateCodec any more; drop it from the entry"},
	} {
		t.Run(table[i].dir+"."+table[i].name, func(t *testing.T) {
			if !slices.Equal(findings[i], want) {
				t.Errorf("findings %q, want %q", findings[i], want)
			}
		})
	}
}

// retiredEntry is an object that nothing may name any more but the
// packages in may: bench/, until ROADMAP item 1 moves it off them, and
// the declaring package where its own implementation needs it.
type retiredEntry struct {
	dir, name string
	may       []string
	why       string
}

var retiredAPI = []retiredEntry{
	{"internal/stressor", "Campaign.Checkpoints", []string{"bench"}, "the Checkpointer alone selects forking"},
	{"internal/stressor", "Campaign.CheckpointTree", []string{"bench"}, "the Checkpointer alone selects forking"},
	{"internal/stressor", "Campaign.EarlyExit", []string{"bench"}, "a run is checked for convergence exactly when none of its faults is permanent"},
	{"internal/campaignd", "Spec.Checkpoints", nil, "the spec key only parses"},
	{"internal/campaignd", "Spec.CheckpointTree", nil, "the spec key only parses"},
	{"internal/campaignd", "Spec.EarlyExit", nil, "the spec key only parses"},
	{"internal/campaignd", "Spec.HashStride", nil, "the spec key only parses"},
	{"internal/stressor", "Host.RunFunc", []string{"bench"}, "pass the runner as Checkpointer, or its method value RunScenario"},
	{"internal/stressor", "Host.SignedRunFunc", []string{"bench"}, "pass the runner as Checkpointer, or its method value RunScenarioSigned"},
	{"internal/journal", "CreateCodec", []string{"bench", "internal/journal"}, "every journal is created binary: journal.Create"},
	{"internal/journal", "JSONL", []string{"bench", "internal/journal"}, "JSONL journals are only read, or appended to in place"},
	{"internal/fabric", "CoordConfig.Codec", []string{"bench"}, "shard journals are created binary"},
	{"internal/sim", "SnapshotModelState", []string{"bench"}, "a model has one state capture: m.SnapshotState(prev)"},
}

// retiredNames is, for each entry of table, every non-test use of its
// object outside the entry's may list and every package of that list
// that no longer names it.
func (m *lintModule) retiredNames(t *testing.T, table []retiredEntry) [][]string {
	t.Helper()
	retired := map[types.Object]int{} // the object's index in table
	for i, r := range table {
		retired[m.object(t, r.dir, r.name)] = i
	}
	findings := make([][]string, len(table))
	namedBy := make([]map[string]bool, len(table))
	for i := range namedBy {
		namedBy[i] = map[string]bool{}
	}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || m.info.Uses[id] == nil {
					return true
				}
				i, ok := retired[origin(m.info.Uses[id])]
				switch {
				case !ok:
				case slices.Contains(table[i].may, p.dir):
					namedBy[i][p.dir] = true
				default:
					findings[i] = append(findings[i], fmt.Sprintf("%s: names the retired %s.%s: %s",
						m.where(id.Pos()), path.Base(table[i].dir), table[i].name, table[i].why))
				}
				return true
			})
		}
	}
	for i, r := range table {
		for _, dir := range r.may {
			if !namedBy[i][dir] {
				findings[i] = append(findings[i], fmt.Sprintf("%s names no %s.%s any more; drop it from the entry",
					dir, path.Base(r.dir), r.name))
			}
		}
	}
	return findings
}

// TestNothingNamesARetiredAPI: no code outside a retired object's may
// list names it, its declaring package included — no caller can come to
// believe that setting a retired switch forks, stops forking, turns
// early exit on or moves a stride, or pick a journal codec again. A
// package of the list that names it no more fails too. Each entry of
// retiredAPI is a subtest.
func TestNothingNamesARetiredAPI(t *testing.T) {
	m := loadedModule(t)
	findings := m.retiredNames(t, retiredAPI)
	for i, r := range retiredAPI {
		t.Run(r.dir+"."+r.name, func(t *testing.T) {
			for _, f := range findings[i] {
				t.Error(f)
			}
		})
	}
}

// TestNothingPairsRunWithCheckpointer: a campaign runs on its
// Checkpointer alone — a ReuseOff runner's sessions are the rebuild
// oracle — so no stressor.Campaign literal outside bench/ sets Run
// beside a Checkpointer.
func TestNothingPairsRunWithCheckpointer(t *testing.T) {
	m := loadedModule(t)
	campaign := m.object(t, "internal/stressor", "Campaign").Type()
	run, cp := m.object(t, "internal/stressor", "Campaign.Run"), m.object(t, "internal/stressor", "Campaign.Checkpointer")
	for _, p := range m.pkgs {
		if p.user() {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || !types.Identical(m.info.TypeOf(lit), campaign) {
					return true
				}
				set := map[types.Object]bool{}
				for _, elt := range lit.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						set[m.info.Uses[kv.Key.(*ast.Ident)]] = true
					}
				}
				if set[run] && set[cp] {
					t.Errorf("%s: a stressor.Campaign sets both Run and Checkpointer", m.where(lit.Pos()))
				}
				return true
			})
		}
	}
}

// TestModelsAreHostDeterministic: a signature digests model state, and a
// Source steers by the signatures sessions compute, so a digest — or any
// model behavior — that depended on the host would make one campaign
// propose different scenarios in different processes. No non-test file
// of the model packages reads the wall clock, draws from the global
// math/rand source or ranges over a map, except where an entry below says
// why the use cannot reach model state. Each package is a subtest.
func TestModelsAreHostDeterministic(t *testing.T) {
	allowed := map[string]string{
		"internal/sim/kernel.go RunUntil time.Now":   "instrumentation: the wall-clock length of a run, published to metrics and traces only",
		"internal/sim/process.go run time.Now":       "instrumentation: the wall-clock length of an activation, published to metrics only",
		"internal/can/bus.go RestoreState range":     "copies one map into another: every order writes the same map",
		"internal/tlm/memory.go SnapshotState range": "copies one map into another: every order writes the same map",
		"internal/tlm/memory.go RestoreState range":  "copies one map into another: every order writes the same map",
		"internal/tlm/memory.go HashState range":     "collects the keys, which are sorted before anything is hashed",
	}
	m := loadedModule(t)
	dirs := []string{"internal/sim", "internal/caps", "internal/can", "internal/tlm", "internal/ecu"}
	seen := map[string]bool{}
	for _, dir := range dirs {
		t.Run(dir, func(t *testing.T) {
			for _, f := range m.pkg(t, dir).files {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					ast.Inspect(fn, func(n ast.Node) bool {
						var what string
						switch n := n.(type) {
						case *ast.RangeStmt:
							if _, ok := m.info.TypeOf(n.X).Underlying().(*types.Map); ok {
								what = "range"
							}
						case *ast.Ident:
							// A package-level function: methods of a seeded *rand.Rand
							// are deterministic, and so are its constructors.
							if f, ok := m.info.Uses[n].(*types.Func); ok && f.Pkg() != nil && f.Type().(*types.Signature).Recv() == nil {
								switch pkg := f.Pkg().Path(); {
								case pkg == "time" && f.Name() == "Now",
									(pkg == "math/rand" || pkg == "math/rand/v2") && !strings.HasPrefix(f.Name(), "New"):
									what = f.Pkg().Name() + "." + f.Name()
								}
							}
						}
						if what == "" {
							return true
						}
						key := fmt.Sprintf("%s %s %s", m.fset.Position(n.Pos()).Filename, fn.Name.Name, what)
						if seen[key] = true; allowed[key] == "" {
							t.Errorf("%s: %s in %s: model behavior may depend on the host", m.where(n.Pos()), what, fn.Name.Name)
						}
						return true
					})
				}
			}
			for key := range allowed {
				if path.Dir(strings.Fields(key)[0]) == dir && !seen[key] {
					t.Errorf("allow-list entry %q matches nothing; drop it", key)
				}
			}
		})
	}
	for key := range allowed {
		if !slices.Contains(dirs, path.Dir(strings.Fields(key)[0])) {
			t.Errorf("allow-list entry %q names a file outside the model packages; drop it", key)
		}
	}
}

// TestOnePrototypeHost: the runner every prototype shares is written
// once, in internal/stressor. No other package outside bench/ declares
// a ForkTime or NewTreeSession method — a prototype supplies a Model to
// stressor.Host instead. The one exception is a decorator: a
// NewTreeSession on a struct that embeds a stressor.Checkpointer, whose
// sessions it wraps and forwards to (capsim-worker's stall hook).
func TestOnePrototypeHost(t *testing.T) {
	m := loadedModule(t)
	checkpointer := m.object(t, "internal/stressor", "Checkpointer").Type()
	decorates := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		st, ok := recv.Underlying().(*types.Struct)
		for i := 0; ok && i < st.NumFields(); i++ {
			if st.Field(i).Embedded() && types.Identical(st.Field(i).Type(), checkpointer) {
				return true
			}
		}
		return false
	}
	for _, p := range m.pkgs {
		if p.user() || p.dir == "internal/stressor" || strings.HasPrefix(p.dir, "internal/stressor/") {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Name.Name != "ForkTime" && fn.Name.Name != "NewTreeSession" {
					continue
				}
				if fn.Name.Name == "NewTreeSession" && decorates(m.info.Defs[fn.Name].(*types.Func)) {
					continue
				}
				t.Errorf("%s: declares %s: prototype hosting belongs to stressor.Host", m.where(fn.Pos()), fn.Name.Name)
			}
		}
	}
}
