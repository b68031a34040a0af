package stressor

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnePrototypeHost: the runner every prototype shares is written
// once, here. Outside this package no non-test file under internal/,
// cmd/ or examples/ may declare ForkTime or NewTreeSession — a prototype
// supplies a Model to Host instead. (bench/ is the measuring instrument:
// its tracing decorator forwards NewTreeSession to the host it wraps.)
func TestOnePrototypeHost(t *testing.T) {
	const module = "../.."
	fset := token.NewFileSet()
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
			rel, _ := filepath.Rel(module, path)
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && (fn.Name.Name == "ForkTime" || fn.Name.Name == "NewTreeSession") {
					t.Errorf("%s:%d: declares %s: prototype hosting belongs to stressor.Host", rel, fset.Position(fn.Pos()).Line, fn.Name.Name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
