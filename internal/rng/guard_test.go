package rng_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// hotPackages draw on the slot hot path, so their streams must be
// rng.Streams. Their tests may still use math/rand as an oracle.
var hotPackages = []string{"../netsim", "../traffic", "../packet", "../../study"}

// TestHotPackagesDoNotSeedMathRand fails if non-test code in a hot
// package builds a math/rand source: a rand.NewSource stream costs an
// interface call per draw and a serial ~1,840-step seeding chain.
func TestHotPackagesDoNotSeedMathRand(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range hotPackages {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("%s: no Go files", dir)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			name := mathRandName(f)
			if name == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "NewSource" {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
					t.Errorf("%s: calls %s.NewSource; draw from an rng.Stream instead", fset.Position(sel.Pos()), name)
				}
				return true
			})
		}
	}
}

// mathRandName returns the name f imports math/rand under, or "".
func mathRandName(f *ast.File) string {
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path != "math/rand" {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "rand"
	}
	return ""
}
