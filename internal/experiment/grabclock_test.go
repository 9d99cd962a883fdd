package experiment

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// clockFree is the grab path's per-host and per-attempt code, by package, as
// "pkg.(*Type).method": DESIGN § 7's rule is that it touches only
// pre-resolved counters, and only the sampled grab_window exemplar
// (telemetry.ChildTracer) reads the clock.
var clockFree = map[string][]string{
	"zgrab":      {"zgrab.(*Grabber).GrabFast", "zgrab.(*Grabber).try", "zgrab.(*Grabber).count"},
	"experiment": {"experiment.(*grabStage).grabSlot", "experiment.(*grabStage).offer", "experiment.(*grabStage).push"},
}

// TestGrabPathReadsNoClock fails if any clockFree method calls time.Now or
// time.Since, or no longer exists under its name.
func TestGrabPathReadsNoClock(t *testing.T) {
	for pkg, methods := range clockFree {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		reads := map[string]bool{}
		fset := token.NewFileSet()
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for m, r := range clockReadsIn(pkg, f) {
				reads[m] = r
			}
		}
		for _, m := range methods {
			r, ok := reads[m]
			switch {
			case !ok:
				t.Errorf("%s not found: rename it here too", m)
			case r:
				t.Errorf("%s reads the clock on the grab path", m)
			}
		}
	}
}

// TestClockReadsDetector holds the scan to the forms it must catch: a call,
// a method value, a read inside a closure, and an import under another
// name.
func TestClockReadsDetector(t *testing.T) {
	const src = `package p
import clock "time"
func (g *G) call()    { _ = clock.Since(clock.Time{}) }
func (g *G) value()   { now := clock.Now; _ = now }
func (g *G) closure() { func() { clock.Now() }() }
func (g *G) other()   { _ = clock.Duration(1).Seconds() }
func (g G) byValue()  { clock.Now() }
func free()           { clock.Now() }
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := clockReadsIn("p", f)
	want := map[string]bool{"p.(*G).call": true, "p.(*G).value": true, "p.(*G).closure": true, "p.(*G).other": false}
	if len(got) != len(want) {
		t.Errorf("scanned %v, want the pointer-receiver methods %v", got, want)
	}
	for m, w := range want {
		if got[m] != w {
			t.Errorf("%s: reads = %t, want %t", m, got[m], w)
		}
	}
}

// clockReadsIn maps each pointer-receiver method declared in f, as
// "pkg.(*Type).method", to whether its body refers to time.Now or
// time.Since.
func clockReadsIn(pkg string, f *ast.File) map[string]bool {
	timePkg := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"time"` {
			timePkg = "time"
			if imp.Name != nil {
				timePkg = imp.Name.Name
			}
		}
	}
	out := map[string]bool{}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Body == nil {
			continue
		}
		star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		typ, ok := star.X.(*ast.Ident)
		if !ok {
			continue
		}
		reads := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && timePkg != "" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == timePkg && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
					reads = true
				}
			}
			return !reads
		})
		out[pkg+".(*"+typ.Name+")."+fn.Name.Name] = reads
	}
	return out
}
