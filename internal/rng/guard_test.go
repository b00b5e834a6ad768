package rng_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// moduleRoot is the root module's directory, relative to this package.
const moduleRoot = "../.."

// TestOnlyRngImportsMathRand walks every non-test Go file of the root
// module and fails on a math/rand import outside internal/rng: every
// draw goes through rng.Stream, so the simulator has one random-stream
// type. Tests may still use math/rand as an oracle. fabricbench is its
// own module and is skipped, as are testdata trees.
func TestOnlyRngImportsMathRand(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(moduleRoot, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			if rel == "fabricbench" || rel == "internal/rng" || name == "testdata" || (rel != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files++
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" || strings.HasPrefix(p, "math/rand/") {
				t.Errorf("%s imports %s; draw from an rng.Stream instead", rel, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d non-test Go files under %s; is it the module root?", files, moduleRoot)
	}
}
