package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestPassesReadRowsThroughJoin fails if non-test analysis code reads a
// scan's address column: which row of a scan holds a host is decided once,
// by results.Join, and every pass reads rows by index through it. The check
// is by name: (*results.ScanResult).Addrs is the only Addrs in the tree.
func TestPassesReadRowsThroughJoin(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range addrsReadsIn(f) {
			t.Errorf("%s: %s reads a scan's address column; read rows through the trial's results.Join", name, fn)
		}
	}
}

// TestAddrsReadsDetector holds the scan to the forms it must catch: a call,
// a method value and a read inside a closure, in methods and functions.
func TestAddrsReadsDetector(t *testing.T) {
	const src = `package p
func (c *C) call()   { _ = c.s.Addrs() }
func value(s *S)     { f := s.Addrs; _ = f }
func closure(s *S)   { func() { _ = len(s.Addrs()) }() }
func other(s *S)     { _ = s.NumAddrs(); _ = s.Find }
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := addrsReadsIn(f)
	want := []string{"call", "closure", "value"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("found reads in %v, want %v", got, want)
	}
}

// addrsReadsIn returns, sorted, the functions and methods declared in f
// whose bodies refer to a selector named Addrs.
func addrsReadsIn(f *ast.File) []string {
	var out []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		reads := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Addrs" {
				reads = true
			}
			return !reads
		})
		if reads {
			out = append(out, fn.Name.Name)
		}
	}
	sort.Strings(out)
	return out
}
