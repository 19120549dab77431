package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"

	"golang.org/x/tools/go/analysis"
)

// The fact engine. Every interprocedural checker follows one recipe:
// walk the package's function declarations, grow its fact over them to a
// fixpoint — reading this package's partial facts and the facts imported
// packages exported through one lookup — export the result, then check
// each body against it. The pieces below are that recipe; the analyzers
// supply only what differs (the source, the fact, the fixpoint direction).

// funcDecl is one function declaration with a body, and its object.
type funcDecl struct {
	decl *ast.FuncDecl
	fn   *types.Func
}

// funcDecls returns the package's function declarations that have bodies,
// in source order. Test files are skipped unless tests is set: most
// contracts bind only production code, and no importer can see a test
// unit's facts.
func funcDecls(pass *analysis.Pass, tests bool) []funcDecl {
	var out []funcDecl
	for _, file := range pass.Files {
		if !tests && isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					out = append(out, funcDecl{fd, fn})
				}
			}
		}
	}
	return out
}

// factPtr constrains a fact type parameter to the pointer form the
// unitchecker registers and serializes.
type factPtr[F any] interface {
	*F
	analysis.Fact
}

// factTable is one fact type as a pass sees it: this package's facts in
// local (grown by a fixpoint, then exported), every other package's
// through the facts its analysis exported.
type factTable[F any, P factPtr[F]] struct {
	pass  *analysis.Pass
	local map[*types.Func]P
	trust func(*types.Package) bool // imports to consult; nil trusts all
}

func newFactTable[F any, P factPtr[F]](pass *analysis.Pass) *factTable[F, P] {
	return &factTable[F, P]{pass: pass, local: make(map[*types.Func]P)}
}

// of returns fn's fact, or nil when fn has none (or is not a function).
func (t *factTable[F, P]) of(fn *types.Func) P {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	fn = fn.Origin()
	if fn.Pkg() == t.pass.Pkg {
		return t.local[fn]
	}
	if t.trust != nil && !t.trust(fn.Pkg()) {
		return nil
	}
	f := P(new(F))
	if t.pass.ImportObjectFact(fn, f) {
		return f
	}
	return nil
}

// has reports whether fn carries the fact.
func (t *factTable[F, P]) has(fn *types.Func) bool { return t.of(fn) != nil }

// export publishes the local facts. Test-file functions are left out:
// nothing can import a test unit's facts.
func (t *factTable[F, P]) export() {
	for fn, f := range t.local {
		if !isTestFile(t.pass.Fset, fn.Pos()) {
			t.pass.ExportObjectFact(fn, f)
		}
	}
}

// indexFact is a fact that lists parameter or result indices, ascending.
type indexFact[F any] interface {
	factPtr[F]
	indices() *[]int
}

// indicesOf returns a lookup of the indices t's fact lists for a callee.
func indicesOf[F any, P indexFact[F]](t *factTable[F, P]) func(*types.Func) []int {
	return func(fn *types.Func) []int {
		if f := t.of(fn); f != nil {
			return *f.indices()
		}
		return nil
	}
}

// growIndices is the fixpoint of every index-set fact: derive computes the
// indices a declaration earns from the facts known so far, sets only grow,
// so the loop ends once no function gains an index. Chains of wrappers
// thus resolve in any source order. The result is exported.
func growIndices[F any, P indexFact[F]](t *factTable[F, P], decls []funcDecl, derive func(funcDecl) map[int]bool) {
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			set := make(map[int]bool)
			for i := range derive(d) {
				set[i] = true
			}
			prev := t.local[d.fn]
			if prev != nil {
				for _, i := range *prev.indices() {
					set[i] = true
				}
			}
			if len(set) == 0 || prev != nil && len(set) == len(*prev.indices()) {
				continue
			}
			f := P(new(F))
			for i := range set {
				*f.indices() = append(*f.indices(), i)
			}
			sort.Ints(*f.indices())
			t.local[d.fn] = f
			changed = true
		}
	}
	t.export()
}

// solveCallGraph is the fixpoint of every boolean fact over the local call
// graph, from the facts seed grants. A least fixpoint adds each function
// step grants the fact; a greatest fixpoint strikes each one step denies
// it, so a cycle that never disproves itself survives. step sees the
// table as it grows or shrinks, and is asked only about functions not yet
// settled in the fixpoint's direction. The result is exported.
func solveCallGraph[F any, P factPtr[F]](t *factTable[F, P], decls []funcDecl, greatest bool, seed, step func(funcDecl) P) {
	for _, d := range decls {
		if f := seed(d); f != nil {
			t.local[d.fn] = f
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if _, has := t.local[d.fn]; has != greatest {
				continue
			}
			if f := step(d); greatest && f == nil {
				delete(t.local, d.fn)
				changed = true
			} else if !greatest && f != nil {
				t.local[d.fn] = f
				changed = true
			}
		}
	}
	t.export()
}

// taintRule is what an analyzer hands the value-taint tracker: the calls
// whose result is tainted in the body that makes them, and the callee fact
// that taints result indices across calls. Taint follows bare values: a
// value stored into a struct or array member leaves the variable clean.
type taintRule struct {
	info    *types.Info
	source  func(*ast.CallExpr) bool
	results func(*types.Func) []int
}

// taint tracks, inside one function body, which variables hold a tainted
// value. It is position-ordered: a use is tainted if the latest
// assignment before it was.
type taint struct {
	taintRule
	assigns map[*types.Var][]taintAssign
}

type taintAssign struct {
	pos     token.Pos
	tainted bool
	via     *types.Func // non-nil when the taint arrived through a call's fact
}

// track records every assignment in body.
func (r taintRule) track(body ast.Node) *taint {
	t := &taint{taintRule: r, assigns: make(map[*types.Var][]taintAssign)}
	record := func(lhs ast.Expr, tok token.Token, tainted bool, via *types.Func) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := r.info.Uses[id]
		if tok == token.DEFINE {
			obj = r.info.Defs[id]
		}
		if v, ok := obj.(*types.Var); ok {
			t.assigns[v] = append(t.assigns[v], taintAssign{id.Pos(), tainted, via})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(as.Lhs) == len(as.Rhs) {
			for i := range as.Lhs {
				tainted, via := t.expr(as.Rhs[i])
				record(as.Lhs[i], as.Tok, tainted, via)
			}
			return true
		}
		// Tuple assignment from a single call: x, y := f().
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			fn := calleeFunc(r.info, call)
			res := r.results(fn)
			for i := range as.Lhs {
				if slices.Contains(res, i) {
					record(as.Lhs[i], as.Tok, true, fn)
				} else {
					record(as.Lhs[i], as.Tok, false, nil)
				}
			}
		}
		return true
	})
	for _, as := range t.assigns {
		sort.Slice(as, func(i, j int) bool { return as[i].pos < as[j].pos })
	}
	return t
}

// latest returns v's last assignment before pos (the zero value if none).
func (t *taint) latest(v *types.Var, pos token.Pos) taintAssign {
	var last taintAssign
	for _, a := range t.assigns[v] {
		if a.pos < pos && a.pos > last.pos {
			last = a
		}
	}
	return last
}

// expr reports whether e carries a tainted value, and through which
// callee's fact (nil when the source call is in this body). Value
// identity survives parens and single-argument conversions; any other
// operator — a mask, arithmetic, member access — breaks it.
func (t *taint) expr(e ast.Expr) (bool, *types.Func) {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if tv, ok := t.info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return t.expr(x.Args[0])
		}
		if t.source(x) {
			return true, nil
		}
		if fn := calleeFunc(t.info, x); slices.Contains(t.results(fn), 0) {
			return true, fn
		}
	case *ast.Ident:
		if v, ok := t.info.Uses[x].(*types.Var); ok {
			a := t.latest(v, x.Pos())
			return a.tainted, a.via
		}
	}
	return false, nil
}

// returns computes which of d's results carry a tainted value on some
// return path: returned directly, through a named result on a bare
// return, or forwarded from a callee by `return f()`.
func (t *taint) returns(d funcDecl) map[int]bool {
	results := d.fn.Type().(*types.Signature).Results()
	out := make(map[int]bool)
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // its returns are its own
		}
		ret, ok := n.(*ast.ReturnStmt)
		switch {
		case !ok:
		case len(ret.Results) == 0:
			for i := 0; i < results.Len(); i++ {
				if t.latest(results.At(i), ret.Pos()).tainted {
					out[i] = true
				}
			}
		case len(ret.Results) == results.Len():
			for i, res := range ret.Results {
				if tainted, _ := t.expr(res); tainted {
					out[i] = true
				}
			}
		default: // return f() of a multi-result callee
			if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
				for _, i := range t.results(calleeFunc(t.info, call)) {
					if i < results.Len() {
						out[i] = true
					}
				}
			}
		}
		return true
	})
	return out
}
