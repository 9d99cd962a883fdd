package scenario

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/policy"
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
// compilation and Handshake's served connection count. Nothing in loss: a
// loss.Matrix is immutable once NewMatrix returns.
var receiverWriters = []string{
	"outage.(*Schedule).add",
	"policy.(*IDS).RecordProbe",
	"policy.(*IDS).ConnVerdict",
	"policy.(*IDS).Reset",
	"policy.(*IDS).BlockedState",
	"policy.(*IDS).MergeStateFrom",
	"policy.(*Engine).Add",
	"policy.(*MaxStartups).keys",
	"hostsim.(*exchange).flush",
	"scenario.(*Scenario).build*",
	"fabric.(*Fabric).newPlanTable",
	"fabric.(*Fabric).compile",
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
func (r *T) assign()     { r.n = 1 }
func (r *T) elem()       { r.buf[0] = 1 }
func (r *T) deref()      { *r = T{} }
func (r *T) opAssign()   { r.n += 2 }
func (r *T) inc()        { r.n++ }
func (r *T) dec()        { r.s.n-- }
func (r *T) store()      { r.p.Store(nil) }
func (r *T) cas()        { r.v.CompareAndSwap(0, 1) }
func (r *T) swap()       { r.v.Swap(1) }
func (r *T) add()        { r.v.Add(1) }
func (r *T) lock()       { r.mu.Lock() }
func (r *T) closure()    { func() { r.n = 3 }() }
func (r *A) idx()        { r[0] = 1 }
func (r *A) idxField()   { r[1].n = 2 }
func (r *T) paren()      { (r).n = 1 }
func (r *T) parenStar()  { (*r).n = 1 }
func (r *T) parenDeref() { *(r) = T{} }
func (r *T) read() int   { n := r.n; n++; return n }
func (r *T) local()      { r = nil }
func (r *T) parenLocal() { (r) = nil }
func (r *T) selfCall()   { r.Add(1) }
func (r *T) rlock()      { r.mu.RLock() }
func (t T) value()       { t.n = 1 }
func (*T) unnamed()      {}
func free(r *T)          { r.n = 1 }
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := receiverWritersIn("p", f)
	sort.Strings(got)
	var want []string
	for _, m := range []string{"assign", "elem", "deref", "opAssign", "inc", "dec", "store", "cas", "swap", "add", "lock", "closure", "paren", "parenStar", "parenDeref"} {
		want = append(want, "p.(*T)."+m)
	}
	want = append(want, "p.(*A).idx", "p.(*A).idxField")
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("writers = %v\nwant      %v", got, want)
	}
	// The field each write lands in, which the rule purity scan keys on.
	fields := map[string]string{
		"assign": "n", "elem": "buf", "deref": "*", "dec": "s", "store": "p", "lock": "mu",
		"idx": "*", "idxField": "*", "paren": "n", "parenStar": "n", "parenDeref": "*",
	}
	for _, d := range f.Decls {
		fn := d.(*ast.FuncDecl)
		want, ok := fields[fn.Name.Name]
		if !ok {
			continue
		}
		if got := receiverFieldWrites(fn); len(got) != 1 || !got[want] {
			t.Errorf("%s writes %v, want only %s", fn.Name.Name, got, want)
		}
	}
}

// receiverWritersIn names the pointer-receiver methods in f that write
// through their receiver (see receiverFieldWrites).
func receiverWritersIn(pkg string, f *ast.File) []string {
	var out []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Body == nil || len(receiverFieldWrites(fn)) == 0 {
			continue
		}
		out = append(out, pkg+".(*"+typeName(fn.Recv.List[0].Type.(*ast.StarExpr).X)+")."+fn.Name.Name)
	}
	return out
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

// ruleMemos are the receiver fields a Rule's Evaluate may read although a
// method of its type writes them, as "pkg.Type.field": first-use memos of
// values derived from fields set at construction, which racing first uses
// store identically. MaxStartups derives its three sub-keys once.
var ruleMemos = []string{"policy.MaxStartups.sub"}

// TestRuleEvaluateReadsNoMutableField makes "a Rule is a pure function of
// the query" checkable. The fabric reuses one verdict for a target's probes
// at one time, and the sweep's batch split runs Evaluate on two goroutines
// at once, so a rule's answer may not hang on state anything changes after
// construction. For every method Evaluate(*Query) (Verdict, bool) in
// decisionPackages (what makes a type a policy.Rule), it collects the
// receiver fields Evaluate reads, directly or through methods of its own
// type, and fails if any method of that type writes one (rules are built
// by struct literals and functions, never by methods). A stateful
// detector's L7 method is named ConnVerdict so that an IDS cannot be a Rule.
func TestRuleEvaluateReadsNoMutableField(t *testing.T) {
	if _, ok := any(&policy.IDS{}).(policy.Rule); ok {
		t.Error("*policy.IDS satisfies policy.Rule: its detection state would reach a rule engine")
	}
	types := map[string]map[string]*ast.FuncDecl{}
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
			addMethods(types, pkg, f)
		}
	}
	rules, impure := impureRuleReads(types)
	if len(rules) < 5 {
		t.Fatalf("found %d rule types (%v): the scan is not reading the packages", len(rules), rules)
	}
	t.Logf("rules: %v", rules)
	used := map[string]bool{}
	for _, r := range impure {
		if slices.Contains(ruleMemos, r) {
			used[r] = true
			continue
		}
		t.Errorf("%s: read by Evaluate and written by a method of its type", r)
	}
	for _, m := range ruleMemos {
		if !used[m] {
			t.Errorf("memo entry %s matches no field Evaluate reads and a method writes", m)
		}
	}
}

// TestRuleReadsDetector holds the purity scan to what it must flag: a field
// an Evaluate reads, directly or through a method of its type, that another
// method writes (the IDS shape, before ConnVerdict). Fields only
// construction sets, value receivers' local copies and types with no
// Evaluate(*Query) (Verdict, bool) pass.
func TestRuleReadsDetector(t *testing.T) {
	const src = `package p
type Pure struct{ n int }
func (r *Pure) Evaluate(q *Query) (Verdict, bool) { return Verdict(r.n), true }

type IDSLike struct{ blocked map[int]bool }
func (d *IDSLike) Record(q *Query)                    { d.blocked[1] = true }
func (d *IDSLike) Evaluate(q *Query) (Verdict, bool) { return 0, d.blocked[1] }

type Indirect struct{ hits int }
func (r *Indirect) bump()                              { r.hits++ }
func (r *Indirect) count() int                         { return r.hits }
func (r *Indirect) Evaluate(q *Query) (Verdict, bool) { return 0, r.count() > 0 }

type Copy struct{ n int }
func (c Copy) set()                                 { c.n = 1 }
func (c Copy) Evaluate(q *Query) (Verdict, bool)   { return 0, c.n > 0 }

type NotRule struct{ n int }
func (r *NotRule) inc()                   { r.n++ }
func (r *NotRule) Evaluate(q *Query) bool { return r.n > 0 }
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]map[string]*ast.FuncDecl{}
	addMethods(types, "p", f)
	rules, impure := impureRuleReads(types)
	if got, want := strings.Join(rules, " "), "p.Copy p.IDSLike p.Indirect p.Pure"; got != want {
		t.Errorf("rules = %s, want %s", got, want)
	}
	if got, want := strings.Join(impure, " "), "p.IDSLike.blocked p.Indirect.hits"; got != want {
		t.Errorf("impure reads = %s, want %s", got, want)
	}
}

// addMethods files every method declared in f under "pkg.Type".
func addMethods(types map[string]map[string]*ast.FuncDecl, pkg string, f *ast.File) {
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Body == nil {
			continue
		}
		typ := fn.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		key := pkg + "." + typeName(typ)
		if types[key] == nil {
			types[key] = map[string]*ast.FuncDecl{}
		}
		types[key][fn.Name.Name] = fn
	}
}

// impureRuleReads returns the types with a Rule-shaped Evaluate, and each
// "pkg.Type.field" such an Evaluate reads that a pointer-receiver method of
// the type writes, both sorted.
func impureRuleReads(types map[string]map[string]*ast.FuncDecl) (rules, impure []string) {
	for typ, methods := range types {
		eval, ok := methods["Evaluate"]
		if !ok || !ruleShaped(eval) {
			continue
		}
		rules = append(rules, typ)
		written := map[string]bool{}
		for _, fn := range methods {
			for f := range receiverFieldWrites(fn) {
				written[f] = true
			}
		}
		reads := map[string]bool{}
		receiverFieldReads(eval, methods, reads, map[string]bool{})
		for f := range reads {
			if written[f] || written["*"] {
				impure = append(impure, typ+"."+f)
			}
		}
	}
	sort.Strings(rules)
	sort.Strings(impure)
	return rules, impure
}

// ruleShaped reports whether fn has policy.Rule's Evaluate signature:
// one *Query parameter, results (Verdict, bool).
func ruleShaped(fn *ast.FuncDecl) bool {
	ps, rs := fn.Type.Params.List, fn.Type.Results
	if len(ps) != 1 || len(ps[0].Names) > 1 || rs == nil || len(rs.List) != 2 {
		return false
	}
	star, ok := ps[0].Type.(*ast.StarExpr)
	if !ok || lastName(star.X) != "Query" {
		return false
	}
	return lastName(rs.List[0].Type) == "Verdict" && lastName(rs.List[1].Type) == "bool"
}

// lastName is an identifier's name, or a qualified one's selector.
func lastName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// recvName is fn's receiver variable, or "" when it has none.
func recvName(fn *ast.FuncDecl) string {
	if names := fn.Recv.List[0].Names; len(names) > 0 {
		return names[0].Name
	}
	return ""
}

// receiverFieldWrites is the set of receiver fields a pointer-receiver
// method writes — assigns to (or ++/-- on) a field or element of, or calls
// Store, CompareAndSwap, Swap, Add or Lock on — with "*" for a write of the
// whole receiver. A value receiver writes only its own copy.
func receiverFieldWrites(fn *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	recv := recvName(fn)
	if _, ptr := fn.Recv.List[0].Type.(*ast.StarExpr); !ptr || recv == "" {
		return out
	}
	note := func(e ast.Expr) {
		if f, ok := rootField(e, recv); ok {
			out[f] = true
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				note(lhs)
			}
		case *ast.IncDecStmt:
			note(n.X)
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Store", "CompareAndSwap", "Swap", "Add", "Lock":
					note(sel.X)
				}
			}
		}
		return true
	})
	return out
}

// rootField names the receiver field storage e lies in: the field selected
// nearest the receiver, or "*" for the receiver's whole pointee (*r, (*r)[i],
// r[i] through a pointer to an array). Parentheses are transparent. False
// when e is not reached through the receiver, or is the receiver variable
// itself (r = nil writes only the local).
func rootField(e ast.Expr, recv string) (string, bool) {
	field := ""
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			field, e = x.Sel.Name, x.X
		case *ast.IndexExpr:
			field, e = "*", x.X
		case *ast.StarExpr:
			if field == "" {
				field = "*"
			}
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return field, field != "" && x.Name == recv
		default:
			return "", false
		}
	}
}

// receiverFieldReads adds to reads every receiver field fn reads, following
// calls to the type's own methods through the receiver (seen stops cycles).
func receiverFieldReads(fn *ast.FuncDecl, methods map[string]*ast.FuncDecl, reads, seen map[string]bool) {
	if seen[fn.Name.Name] {
		return
	}
	seen[fn.Name.Name] = true
	recv := recvName(fn)
	if recv == "" {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
			if m, ok := methods[sel.Sel.Name]; ok {
				receiverFieldReads(m, methods, reads, seen)
			} else {
				reads[sel.Sel.Name] = true
			}
		}
		return true
	})
}
