package stressor

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnePrototypeHost: the runner every prototype shares is written
// once, here. Outside this package no non-test file under internal/,
// cmd/ or examples/ may declare ForkTime or NewTreeSession, build a
// TreeCore literal or call RecordTrajectory — a prototype supplies a
// Model to Host instead. (bench/ is the measuring instrument: its tracing
// decorator forwards NewTreeSession to the host it wraps.)
func TestOnePrototypeHost(t *testing.T) {
	const module = "../.."
	fset := token.NewFileSet()
	var findings []string
	for _, top := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(module, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == filepath.Join(module, "internal", "stressor") || d.Name() == "testdata" {
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
			// The name this file knows the stressor package by.
			local := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/stressor" {
					local = "stressor"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			stressorName := func(e ast.Expr) string {
				sel, ok := e.(*ast.SelectorExpr)
				if !ok {
					return ""
				}
				if id, ok := sel.X.(*ast.Ident); ok && local != "" && id.Name == local {
					return sel.Sel.Name
				}
				return ""
			}
			rel, _ := filepath.Rel(module, path)
			found := func(n ast.Node, what string) {
				p := fset.Position(n.Pos())
				findings = append(findings, rel+":"+strconv.Itoa(p.Line)+": "+what)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if name := n.Name.Name; name == "ForkTime" || name == "NewTreeSession" {
						found(n, "declares "+name)
					}
				case *ast.CompositeLit:
					if stressorName(n.Type) == "TreeCore" {
						found(n, "builds a stressor.TreeCore")
					}
				case *ast.CallExpr:
					if name := stressorName(n.Fun); strings.HasPrefix(name, "RecordTrajectory") {
						found(n, "calls stressor."+name)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range findings {
		t.Errorf("%s: prototype hosting belongs to stressor.Host", f)
	}
}
