package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"golang.org/x/tools/go/analysis"
)

// ReturnsUnflushed is the fact flushfact attaches to a function whose
// listed result indices carry a raw-loaded PMwCAS word: a value obtained
// by Device.Load on a protocol-managed word and returned without masking
// the reserved bits (and without the flush-before-read that core.PCASRead
// performs). Callers anywhere in the program must treat such a result as
// flag-bearing.
type ReturnsUnflushed struct {
	Results []int // result indices, ascending
}

// AFact marks ReturnsUnflushed as a serializable analysis fact.
func (*ReturnsUnflushed) AFact() {}

func (f *ReturnsUnflushed) String() string {
	return fmt.Sprintf("ReturnsUnflushed%v", f.Results)
}

// FlushFact reports comparisons, switches and re-stores of raw-loaded
// PMwCAS words that do not first mask the reserved flag bits (§3, §4.2).
// A word read with Device.Load can carry DirtyFlag / MwCASFlag /
// RDCSSFlag in its top bits; `load == plain` is then false even when the
// payloads agree, code that acts on the comparison acts on a value that
// is not yet durable, and a re-store writes a set dirty bit back as
// payload. The load may happen in the same function body, or in a
// callee: functions that return such a word — directly, through a local
// variable, or by forwarding another ReturnsUnflushed function's result,
// across any number of package hops — export the fact, and their call
// sites are checked like a local load.
var FlushFact = &analysis.Analyzer{
	Name: "flushfact",
	Doc: "report unmasked comparison/switch/re-store of a word raw-loaded from a PMwCAS-managed address, in the " +
		"same body or by a callee (ReturnsUnflushed facts; mask with &^ core.FlagsMask or use core.PCASRead)",
	Requires:  []*analysis.Analyzer{Suppress},
	FactTypes: []analysis.Fact{(*ReturnsUnflushed)(nil)},
	Run:       runFlushFact,
}

func runFlushFact(pass *analysis.Pass) (interface{}, error) {
	if pkgExempt(pass.Pkg.Path()) {
		return nil, nil
	}
	sup := suppressionsOf(pass)
	managed := managedSet(pass)

	// local holds this package's facts while the fixpoint below grows
	// them; imported packages' facts come from the fact store.
	local := make(map[*types.Func]*ReturnsUnflushed)
	factFor := func(fn *types.Func) *ReturnsUnflushed {
		if fn == nil || fn.Pkg() == nil {
			return nil
		}
		if f, ok := local[fn]; ok {
			return f
		}
		if fn.Pkg() != pass.Pkg {
			var f ReturnsUnflushed
			if pass.ImportObjectFact(fn, &f) {
				return &f
			}
		}
		return nil
	}

	var decls []*ast.FuncDecl
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}

	// Phase 1 — export: grow ReturnsUnflushed facts to a fixpoint so
	// chains of wrappers inside this package resolve in any source order.
	// The result sets only grow, so termination is immediate.
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			fn, ok := pass.TypesInfo.Defs[d.Name].(*types.Func)
			if !ok {
				continue
			}
			results := unflushedReturns(pass, managed, factFor, d, fn)
			if len(results) == 0 {
				continue
			}
			prev := local[fn]
			merged := mergeResultSet(prev, results)
			if prev == nil || len(merged.Results) != len(prev.Results) {
				local[fn] = merged
				changed = true
			}
		}
	}
	for fn, fact := range local {
		pass.ExportObjectFact(fn, fact)
	}

	// Phase 2 — check: inside every function (test files excepted:
	// crash-recovery tests inspect raw words on purpose), flag unmasked
	// use of raw-loaded values. Same-body loads count only in files that
	// take part in the protocol; volatile baselines never import core.
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkUnflushedUses(pass, sup, managed, factFor, fd.Body, refersToCore(file))
		}
	}
	return nil, nil
}

func mergeResultSet(prev *ReturnsUnflushed, results map[int]bool) *ReturnsUnflushed {
	set := make(map[int]bool, len(results))
	if prev != nil {
		for _, i := range prev.Results {
			set[i] = true
		}
	}
	for i := range results {
		set[i] = true
	}
	out := &ReturnsUnflushed{}
	for i := range set {
		out.Results = append(out.Results, i)
	}
	sort.Ints(out.Results)
	return out
}

// wordTaint tracks, inside one function body, which variables hold a
// raw-loaded protocol word. It is position-ordered: a use is tainted if
// the latest assignment before it was.
type wordTaint struct {
	pass    *analysis.Pass
	managed map[string]bool
	factFor func(*types.Func) *ReturnsUnflushed
	assigns map[*types.Var][]wtAssign
}

type wtAssign struct {
	pos     token.Pos
	tainted bool
	viaFact *types.Func // non-nil when the taint arrived through a call's fact
}

func newWordTaint(pass *analysis.Pass, managed map[string]bool, factFor func(*types.Func) *ReturnsUnflushed, body ast.Node) *wordTaint {
	t := &wordTaint{pass: pass, managed: managed, factFor: factFor, assigns: make(map[*types.Var][]wtAssign)}
	info := pass.TypesInfo
	record := func(lhs ast.Expr, tok token.Token, tainted bool, via *types.Func) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		var obj types.Object
		if tok == token.DEFINE {
			obj = info.Defs[id]
		} else {
			obj = info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok {
			t.assigns[v] = append(t.assigns[v], wtAssign{id.Pos(), tainted, via})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(as.Lhs) == len(as.Rhs) {
			for i := range as.Lhs {
				tainted, via := t.taintedExpr(as.Rhs[i])
				record(as.Lhs[i], as.Tok, tainted, via)
			}
			return true
		}
		// Tuple assignment from a single call: x, y := f().
		if len(as.Rhs) == 1 {
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			fact := t.factFor(calleeFunc(info, call))
			for i := range as.Lhs {
				tainted := fact != nil && containsInt(fact.Results, i)
				var via *types.Func
				if tainted {
					via = calleeFunc(info, call)
				}
				record(as.Lhs[i], as.Tok, tainted, via)
			}
		}
		return true
	})
	for _, as := range t.assigns {
		sort.Slice(as, func(i, j int) bool { return as[i].pos < as[j].pos })
	}
	return t
}

func containsInt(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// taintedExpr reports whether e carries a raw-loaded protocol word, and
// through which callee's fact (nil when the taint is a raw load in this
// function). Masking expressions are never tainted: any operator
// other than a parenthesis or a single-argument conversion breaks the
// value's identity as a raw word.
func (t *wordTaint) taintedExpr(e ast.Expr) (bool, *types.Func) {
	info := t.pass.TypesInfo
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.CallExpr:
		// Conversion: nvram.Offset(raw) still carries the flag bits.
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return t.taintedExpr(x.Args[0])
		}
		if m, ok := deviceCall(info, x); ok && m == "Load" && len(x.Args) > 0 {
			if _, shares := sharesFingerprint(info, x.Args[0], t.managed); shares {
				return true, nil
			}
			return false, nil
		}
		if fact := t.factFor(calleeFunc(info, x)); fact != nil && containsInt(fact.Results, 0) {
			return true, calleeFunc(info, x)
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			latest := wtAssign{pos: token.NoPos}
			for _, a := range t.assigns[v] {
				if a.pos < x.Pos() && a.pos > latest.pos {
					latest = a
				}
			}
			return latest.tainted, latest.viaFact
		}
	}
	return false, nil
}

// unflushedReturns computes which of d's results carry a raw-loaded
// protocol word on some return path.
func unflushedReturns(pass *analysis.Pass, managed map[string]bool, factFor func(*types.Func) *ReturnsUnflushed, d *ast.FuncDecl, fn *types.Func) map[int]bool {
	t := newWordTaint(pass, managed, factFor, d.Body)
	sig := fn.Type().(*types.Signature)
	out := make(map[int]bool)
	ast.Inspect(d.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // its returns are its own
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) == 0 {
			// Bare return with named results: consult the result vars.
			for i := 0; i < sig.Results().Len(); i++ {
				v := sig.Results().At(i)
				latest := wtAssign{pos: token.NoPos}
				for _, a := range t.assigns[v] {
					if a.pos < ret.Pos() && a.pos > latest.pos {
						latest = a
					}
				}
				if latest.tainted {
					out[i] = true
				}
			}
			return true
		}
		if len(ret.Results) != sig.Results().Len() {
			return true // single call returning a tuple: forwarded below
		}
		for i, res := range ret.Results {
			if tainted, _ := t.taintedExpr(res); tainted {
				out[i] = true
			}
		}
		return true
	})
	// return f() forwarding a multi-result fact function.
	ast.Inspect(d.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 || sig.Results().Len() < 2 {
			return true
		}
		call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		if fact := factFor(calleeFunc(pass.TypesInfo, call)); fact != nil {
			for _, i := range fact.Results {
				if i < sig.Results().Len() {
					out[i] = true
				}
			}
		}
		return true
	})
	return out
}

// checkUnflushedUses reports unmasked comparisons, switches, and
// re-stores of raw-loaded values: values that flow out of
// ReturnsUnflushed calls and, when localLoads, loads made in body itself.
func checkUnflushedUses(pass *analysis.Pass, sup *suppressions, managed map[string]bool, factFor func(*types.Func) *ReturnsUnflushed, body ast.Node, localLoads bool) {
	info := pass.TypesInfo
	t := newWordTaint(pass, managed, factFor, body)

	// rawWord reports whether e carries a raw-loaded word, and through
	// which callee's fact (nil for a load in this body).
	rawWord := func(e ast.Expr) (*types.Func, bool) {
		tainted, via := t.taintedExpr(e)
		return via, tainted && (via != nil || localLoads)
	}

	report := func(pos token.Pos, via *types.Func, what, fix string) {
		ok, note := sup.allowed(pos, "flushfact")
		if ok {
			return
		}
		src, read := "a raw Device.Load in this function", "read it via core.PCASRead"
		if via != nil {
			src, read = via.FullName()+" (fact ReturnsUnflushed)", "have the callee read via core.PCASRead"
		}
		pass.Reportf(pos, "%s the unflushed PMwCAS word returned by %s; %s, or %s (paper §3, §4.2)%s",
			what, src, fix, read, note)
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BinaryExpr:
			if x.Op != token.EQL && x.Op != token.NEQ {
				return true
			}
			lv, lt := rawWord(x.X)
			rv, rt := rawWord(x.Y)
			if !lt && !rt {
				return true
			}
			// Comparing against an expression naming the flag bits is
			// deliberate flag inspection.
			if lt && containsFlagName(pass, x.Y) || rt && containsFlagName(pass, x.X) {
				return true
			}
			via := lv
			if !lt {
				via = rv
			}
			report(x.OpPos, via, "comparison ("+x.Op.String()+") of",
				"mask with &^ core.DirtyFlag (or &^ core.FlagsMask) before comparing")
		case *ast.SwitchStmt:
			if x.Tag == nil {
				return true
			}
			if via, ok := rawWord(x.Tag); ok {
				report(x.Tag.Pos(), via, "switch on",
					"mask with &^ core.DirtyFlag (or &^ core.FlagsMask) before switching")
			}
		case *ast.CallExpr:
			for _, argIdx := range storeValueArgs(info, x) {
				if argIdx >= len(x.Args) {
					continue
				}
				if via, ok := rawWord(x.Args[argIdx]); ok {
					report(x.Args[argIdx].Pos(), via, "re-storing",
						"a set dirty bit would be written back as payload; mask with &^ core.FlagsMask first")
				}
			}
		}
		return true
	})
}

// storeValueArgs returns the indices of call's arguments that are written
// into PMwCAS-managed words as values (old or new), for the store-like
// operations of the protocol surface.
func storeValueArgs(info *types.Info, call *ast.CallExpr) []int {
	if m, ok := deviceCall(info, call); ok {
		switch m {
		case "Store":
			return []int{1}
		case "CAS":
			return []int{1, 2}
		}
		return nil
	}
	if name, recv, _, ok := methodCall(info, call); ok {
		if isNamedRecv(info, recv, corePath, "Descriptor") {
			switch name {
			case "AddWord", "AddWordWithPolicy":
				return []int{1, 2}
			case "ReserveEntry":
				return []int{1}
			}
		}
		return nil
	}
	if name, ok := pkgFunc(info, call); ok {
		switch name {
		case "PCAS", "PCASFlush":
			return []int{2, 3}
		case "Persist":
			return []int{2}
		}
	}
	return nil
}
