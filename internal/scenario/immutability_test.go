package scenario

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// decisionPackages are the packages whose state a scenario hands to every
// scan, and the fabric that runs a scan's decisions on it: a write through a
// receiver there is state one scan can leak into another's decisions, or
// one probe into the next.
var decisionPackages = []string{"loss", "outage", "policy", "hostsim", "scenario", "fabric"}

// receiverWriters is every method in decisionPackages allowed to write
// through its receiver, as path.Match patterns over "pkg.(*Type).method".
// Construction, a live detector's state, the rule list, MaxStartups' key
// scratch, a served connection's response buffer, and in a fabric the plan
// compilation, PredialBatch's resolve scratch and Handshake's served
// connection count. Nothing in loss: a loss.Matrix is immutable once
// NewMatrix returns.
var receiverWriters = []string{
	"outage.(*Schedule).add",
	"policy.(*IDS).RecordProbe",
	"policy.(*IDS).Evaluate",
	"policy.(*IDS).Reset",
	"policy.(*IDS).BlockedState",
	"policy.(*IDS).MergeStateFrom",
	"policy.(*Engine).Add",
	"policy.(*MaxStartups).keys",
	"hostsim.(*exchange).flush",
	"scenario.(*Scenario).build*",
	"fabric.(*Fabric).newPlanTable",
	"fabric.(*Fabric).compile",
	"fabric.(*Fabric).PredialBatch",
	"fabric.(*Fabric).Handshake",
}

// TestReceiverWritesAllowlisted lists every pointer-receiver method of the
// decision-chain packages that writes through its receiver and requires it
// to be on receiverWriters, so a new mutable field fails here instead of in
// a determinism differential later. Every allowlist pattern must still
// match a writer, so the list cannot outlive what it excuses.
func TestReceiverWritesAllowlisted(t *testing.T) {
	var writers []string
	for _, pkg := range decisionPackages {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
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
			writers = append(writers, receiverWritersIn(pkg, f)...)
		}
	}
	if len(writers) == 0 {
		t.Fatal("found no receiver writes at all: the scan is not reading the packages")
	}
	used := make(map[string]bool)
	for _, w := range writers {
		ok := false
		for _, pat := range receiverWriters {
			if m, _ := path.Match(pat, w); m {
				ok, used[pat] = true, true
			}
		}
		if !ok {
			t.Errorf("%s writes through its receiver and is not on the allowlist", w)
		}
	}
	for _, pat := range receiverWriters {
		if strings.HasPrefix(pat, "loss.") {
			t.Errorf("allowlist entry %s: loss.Matrix must stay immutable", pat)
		}
		if !used[pat] {
			t.Errorf("allowlist entry %s matches no receiver write", pat)
		}
	}
}

// TestReceiverWritesDetector holds the scan to each write form it must
// find, and to the writes it must not count.
func TestReceiverWritesDetector(t *testing.T) {
	const src = `package p
func (r *T) assign()   { r.n = 1 }
func (r *T) elem()     { r.buf[0] = 1 }
func (r *T) deref()    { *r = T{} }
func (r *T) opAssign() { r.n += 2 }
func (r *T) inc()      { r.n++ }
func (r *T) dec()      { r.s.n-- }
func (r *T) store()    { r.p.Store(nil) }
func (r *T) cas()      { r.v.CompareAndSwap(0, 1) }
func (r *T) swap()     { r.v.Swap(1) }
func (r *T) add()      { r.v.Add(1) }
func (r *T) lock()     { r.mu.Lock() }
func (r *T) closure()  { func() { r.n = 3 }() }
func (r *T) read() int { n := r.n; n++; return n }
func (r *T) local()    { r = nil }
func (r *T) selfCall() { r.Add(1) }
func (r *T) rlock()    { r.mu.RLock() }
func (t T) value()     { t.n = 1 }
func (*T) unnamed()    {}
func free(r *T)        { r.n = 1 }
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := receiverWritersIn("p", f)
	sort.Strings(got)
	var want []string
	for _, m := range []string{"assign", "elem", "deref", "opAssign", "inc", "dec", "store", "cas", "swap", "add", "lock", "closure"} {
		want = append(want, "p.(*T)."+m)
	}
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("writers = %v\nwant      %v", got, want)
	}
}

// receiverWritersIn names the pointer-receiver methods in f that write
// through their receiver: assign to (or ++/-- on) a receiver field or
// element, or call Store, CompareAndSwap, Swap, Add or Lock on a receiver
// field.
func receiverWritersIn(pkg string, f *ast.File) []string {
	var out []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Body == nil {
			continue
		}
		field := fn.Recv.List[0]
		star, ok := field.Type.(*ast.StarExpr)
		if !ok || len(field.Names) == 0 {
			continue
		}
		recv := field.Names[0].Name
		writes := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					writes = writes || throughReceiver(lhs, recv)
				}
			case *ast.IncDecStmt:
				writes = writes || throughReceiver(n.X, recv)
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "Store", "CompareAndSwap", "Swap", "Add", "Lock":
						writes = writes || throughReceiver(sel.X, recv)
					}
				}
			}
			return !writes
		})
		if writes {
			out = append(out, pkg+".(*"+typeName(star.X)+")."+fn.Name.Name)
		}
	}
	return out
}

// throughReceiver reports whether e denotes storage reached through the
// receiver: a field, element or dereference of it, not the receiver
// variable itself.
func throughReceiver(e ast.Expr, recv string) bool {
	depth := 0
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
			depth--
		case *ast.Ident:
			return depth > 0 && x.Name == recv
		default:
			return false
		}
		depth++
	}
}

// typeName is the receiver's type name without type parameters.
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	}
	return "?"
}
