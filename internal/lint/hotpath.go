package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// AllocFree is the fact hotpath attaches to a function it has proven
// transitively free of heap allocation: no make/new, no heap-escaping
// composite or closure, no growing append, no string building, no
// interface boxing, and every callee either carries this fact, is on
// the fiat list of bodiless intrinsics, or is waived by a reasoned
// suppression. The fact is how the proof crosses package boundaries:
// core's install loop is proven once, and every index package that
// calls it imports the result instead of re-deriving it.
type AllocFree struct{}

// AFact marks AllocFree as a serializable analysis fact.
func (*AllocFree) AFact() {}

func (*AllocFree) String() string { return "AllocFree" }

// hotpathAnnotation is the doc-comment marker declaring a function a
// hot-path root: it and everything reachable from it must be proven
// allocation-free.
const hotpathAnnotation = "//pmwcas:hotpath"

// HotPath verifies the allocation-freedom half of the lock-free
// fast-path contract (DESIGN.md §6.3). A function annotated
// //pmwcas:hotpath is a root: its body and the body of every function
// it transitively reaches through static calls must be free of heap
// allocation. Detection runs on the typed AST over the same operation
// taxonomy an SSA-based checker would use (MakeSlice/MakeMap/MakeChan/
// MakeClosure, heap-escaping Alloc, growing append, string
// concatenation and conversion, allocating interface conversions,
// variadic argument slices, goroutine spawns), conservatively: an
// address-taken composite literal is assumed to escape, an interface
// conversion of a non-pointer-shaped value is assumed to box.
//
// Two amortized idioms are permitted statically and pinned dynamically
// by the tier-1 allocation-budget tests (TestPointOpsAllocBudget,
// TestCodecAllocFree, TestWireRoundTripAllocFree): a
// self-append `x = append(x, ...)` (growth amortizes to zero) and a
// `make` under a cap() guard (the reuse branch is the steady state).
//
// Calls are default-deny: a call into a function that is not proven —
// no local proof, no imported AllocFree fact, not on the fiat list of
// known-allocation-free bodiless intrinsics (sync/atomic, math/bits,
// time.Now, ...) — is itself a finding, so an allocation two call hops
// below a root in another package surfaces at the boundary it crosses.
var HotPath = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "report heap allocations and calls to unproven functions reachable from " +
		"//pmwcas:hotpath roots; exports AllocFree facts (DESIGN.md §6.3)",
	Requires:  []*analysis.Analyzer{Suppress},
	FactTypes: []analysis.Fact{(*AllocFree)(nil)},
	Run:       runHotPath,
}

// allocFreeFiat lists functions that cannot be proven by analysis —
// bodiless assembly intrinsics and runtime-coupled leaf calls — but are
// known not to allocate. Kept deliberately short: everything else must
// earn its AllocFree fact from its body.
var allocFreeFiat = map[string]bool{
	"runtime.KeepAlive":           true,
	"runtime.Gosched":             true,
	"time.Now":                    true,
	"time.Since":                  true,
	"(time.Time).IsZero":          true,
	"(time.Time).Sub":             true,
	"(time.Time).Add":             true,
	"(time.Time).Before":          true,
	"(time.Time).UnixNano":        true,
	"(time.Duration).Nanoseconds": true,
	"(time.Duration).Seconds":     true,
	"errors.Is":                   true,
	// Mutex operations park the goroutine on a runtime semaphore but
	// never touch the heap; whether parking is *permitted* on a fast
	// path is the nonblock analyzer's jurisdiction, not hotpath's.
	"(*sync.Mutex).Lock":      true,
	"(*sync.Mutex).Unlock":    true,
	"(*sync.RWMutex).Lock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RLock":   true,
	"(*sync.RWMutex).RUnlock": true,
	// The big-endian codec methods either read fixed-width integers in
	// place or append into the caller's slice — the same amortized
	// self-append idiom the analyzer permits in-line.
	"(encoding/binary.bigEndian).Uint16":       true,
	"(encoding/binary.bigEndian).Uint32":       true,
	"(encoding/binary.bigEndian).Uint64":       true,
	"(encoding/binary.bigEndian).PutUint32":    true,
	"(encoding/binary.bigEndian).AppendUint16": true,
	"(encoding/binary.bigEndian).AppendUint32": true,
	"(*math/rand.Rand).Intn":                   true,
	"(*math/rand.Rand).Int63":                  true,
	"(*math/rand.Rand).Uint64":                 true,
	"(*math/rand.Rand).Float64":                true,
}

// allocFreeFiatPkgs grants the fiat to every function of a package
// whose entire API is allocation-free by construction.
var allocFreeFiatPkgs = map[string]bool{
	"sync/atomic": true,
	"math/bits":   true,
}

func isFiatAllocFree(fn *types.Func) bool {
	if fn.Pkg() != nil && allocFreeFiatPkgs[fn.Pkg().Path()] {
		return true
	}
	return allocFreeFiat[fn.FullName()]
}

// hpOp is one allocation (or unprovable construct) found in a function
// body, already filtered through the suppression index.
type hpOp struct {
	pos  token.Pos
	what string
}

// hpCall is one static call whose allocation-freedom depends on the
// callee's proof.
type hpCall struct {
	pos token.Pos
	fn  *types.Func
}

// hpSummary is the per-function analysis input: local ops and outgoing
// static calls.
type hpSummary struct {
	ops   []hpOp
	calls []hpCall
}

func runHotPath(pass *analysis.Pass) (interface{}, error) {
	sup := suppressionsOf(pass)

	// Phase 1: summarize every function — allocation ops (suppressions
	// waive them here, which is also how an op is exempted from the
	// proof) and outgoing static calls.
	decls := funcDecls(pass, false)
	sums := make(map[*types.Func]*hpSummary, len(decls))
	roots := make(map[*types.Func]bool)
	for _, d := range decls {
		s := &hpSummary{}
		scanAllocOps(pass, sup, d.decl.Body, s)
		sums[d.fn] = s
		if hasAnnotation(d.decl, hotpathAnnotation) {
			roots[d.fn] = true
		}
	}

	// Phase 2: AllocFree, a greatest fixpoint. Every op-free function
	// starts proven and is struck when a call it makes is not; mutual
	// recursion with no allocation anywhere in the cycle survives. A
	// suppression at the call site waives the callee.
	allocFree := newFactTable[AllocFree](pass)
	waived := make(map[token.Pos]bool)
	proven := func(callee *types.Func) bool {
		return callee != nil && (isFiatAllocFree(callee.Origin()) || allocFree.has(callee))
	}
	solveCallGraph(allocFree, decls, true,
		func(d funcDecl) *AllocFree {
			if len(sums[d.fn].ops) > 0 {
				return nil
			}
			return &AllocFree{}
		},
		func(d funcDecl) *AllocFree {
			for _, c := range sums[d.fn].calls {
				if proven(c.fn) || waived[c.pos] {
					continue
				}
				if ok, _ := sup.allowed(c.pos, "hotpath"); ok {
					waived[c.pos] = true
					continue
				}
				return nil
			}
			return &AllocFree{}
		})

	// Phase 3: report. The obligated set is the annotated roots plus
	// every local function reachable from one through static calls;
	// callees in other packages answer with their fact (or become the
	// finding themselves), so each package reports only its own bodies.
	obligated := make(map[*types.Func]bool)
	var frontier []*types.Func
	for fn := range roots {
		obligated[fn] = true
		frontier = append(frontier, fn)
	}
	for len(frontier) > 0 {
		fn := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, c := range sums[fn].calls {
			callee := c.fn.Origin()
			if callee.Pkg() != pass.Pkg || sums[callee] == nil || obligated[callee] {
				continue
			}
			obligated[callee] = true
			frontier = append(frontier, callee)
		}
	}
	for _, d := range decls {
		fn := d.fn
		if !obligated[fn] {
			continue
		}
		s := sums[fn]
		for _, op := range s.ops {
			pass.Reportf(op.pos,
				"%s on a //pmwcas:hotpath fast path (%s is reachable from an annotated root); "+
					"hot paths must not allocate — fix it, or waive with a reasoned //lint:allow hotpath (§6.3)",
				op.what, fn.Name())
		}
		for _, c := range s.calls {
			if proven(c.fn) || waived[c.pos] {
				continue
			}
			callee := c.fn.Origin()
			if callee.Pkg() == pass.Pkg && sums[callee] != nil {
				continue // its own body findings tell the story
			}
			if ok, _ := sup.allowed(c.pos, "hotpath"); ok {
				continue
			}
			pass.Reportf(c.pos,
				"call to %s, which is not proven allocation-free, on a //pmwcas:hotpath fast path (%s); "+
					"the callee needs an AllocFree fact, a fiat entry, or a reasoned //lint:allow hotpath (§6.3)",
				callee.FullName(), fn.Name())
		}
	}
	return nil, nil
}

// hasAnnotation reports whether the declaration's doc comment carries
// the given //pmwcas: marker.
func hasAnnotation(d *ast.FuncDecl, marker string) bool {
	if d.Doc == nil {
		return false
	}
	for _, c := range d.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), marker) {
			return true
		}
	}
	return false
}

// scanAllocOps walks one function body collecting allocation ops and
// static calls into s. Suppressed ops are waived (dropped) — that is
// the mechanism by which a reviewed exception lets the function keep
// its AllocFree proof. Nested function literals are not descended: a
// capturing literal is itself an allocation, a non-capturing one runs
// on its caller's schedule and is judged at its (dynamic) call site.
func scanAllocOps(pass *analysis.Pass, sup *suppressions, body *ast.BlockStmt, s *hpSummary) {
	info := pass.TypesInfo

	// Pre-pass: self-append assignments and cap()-guarded makes — the
	// two amortized idioms — plus selectors used as call functions (so
	// bare method values, which allocate, can be told apart).
	selfAppend := make(map[*ast.CallExpr]bool)
	capGuarded := make(map[*ast.CallExpr]bool)
	calledSel := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != 1 || len(x.Rhs) != 1 {
				return true
			}
			call, ok := x.Rhs[0].(*ast.CallExpr)
			if !ok || len(call.Args) == 0 || !isBuiltinCall(info, call, "append") {
				return true
			}
			dst := types.ExprString(x.Lhs[0])
			src := call.Args[0]
			if sl, ok := src.(*ast.SliceExpr); ok {
				src = sl.X
			}
			if types.ExprString(src) == dst {
				selfAppend[call] = true
			}
		case *ast.IfStmt:
			if !exprMentionsCap(info, x.Cond) {
				return true
			}
			ast.Inspect(x.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok && isBuiltinCall(info, call, "make") {
					capGuarded[call] = true
				}
				return true
			})
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				calledSel[sel] = true
			}
		}
		return true
	})

	add := func(pos token.Pos, what string) {
		if ok, _ := sup.allowed(pos, "hotpath"); ok {
			return
		}
		s.ops = append(s.ops, hpOp{pos, what})
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if capturesOuter(info, x) {
				add(x.Pos(), "closure capturing local state (heap-allocated at creation)")
			}
			return false
		case *ast.GoStmt:
			add(x.Pos(), "go statement (goroutine spawn allocates)")
			// Still descend: the spawned call's arguments are evaluated here.
			return true
		case *ast.CompositeLit:
			t := info.TypeOf(x)
			switch t.Underlying().(type) {
			case *types.Slice:
				add(x.Pos(), "slice literal (allocates its backing array)")
			case *types.Map:
				add(x.Pos(), "map literal")
			}
			return true
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					add(x.Pos(), "address-taken composite literal (assumed heap-escaping)")
				}
			}
			return true
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(info.TypeOf(x)) && !isConstExpr(info, x) {
				add(x.Pos(), "string concatenation")
			}
			return true
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if t := info.TypeOf(ix.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							add(lhs.Pos(), "map insert (may grow the table)")
						}
					}
				}
			}
			return true
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.MethodVal && !calledSel[x] {
				add(x.Pos(), "method value (allocates a bound-method closure)")
			}
			return true
		case *ast.CallExpr:
			return scanCall(pass, sup, x, s, selfAppend, capGuarded, add)
		}
		return true
	})
}

// scanCall classifies one call expression: builtin, conversion, static
// call, or dynamic call. The return value tells ast.Inspect whether to
// descend into the call's children.
func scanCall(pass *analysis.Pass, sup *suppressions, call *ast.CallExpr, s *hpSummary,
	selfAppend, capGuarded map[*ast.CallExpr]bool, add func(token.Pos, string)) bool {
	info := pass.TypesInfo
	fun := ast.Unparen(call.Fun)

	// Type conversion?
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		target := tv.Type
		if len(call.Args) == 1 {
			src := info.TypeOf(call.Args[0])
			switch {
			case isStringType(target) && !isStringType(src) && !isConstExpr(info, call):
				add(call.Pos(), "conversion to string (allocates)")
			case isByteOrRuneSlice(target) && isStringType(src):
				add(call.Pos(), "string-to-slice conversion (allocates)")
			case types.IsInterface(target.Underlying()) && src != nil &&
				!types.IsInterface(src.Underlying()) && !isPointerShaped(src):
				add(call.Pos(), "interface conversion of a non-pointer value (boxes on the heap)")
			}
		}
		return true
	}

	// Builtin?
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				if !capGuarded[call] {
					add(call.Pos(), "make (allocates; a cap()-guarded make reusing a buffer is permitted)")
				}
			case "new":
				add(call.Pos(), "new (heap allocation)")
			case "append":
				if !selfAppend[call] {
					add(call.Pos(), "append into a fresh or foreign slice (growth allocates; self-append `x = append(x, ...)` is permitted)")
				}
			case "panic":
				return false // failure path: its argument may box, deliberately exempt
			}
			return true
		}
	}

	// Static call with a resolvable callee?
	if fn := calleeFunc(info, call); fn != nil && !isInterfaceMethod(fn) {
		boxingArgs(info, call, fn, add)
		s.calls = append(s.calls, hpCall{call.Pos(), fn})
		return true
	}

	// Dynamic: a func-typed value or an interface method.
	if _, ok := fun.(*ast.Ident); ok || isSelectorCall(fun) {
		add(call.Pos(), "dynamic call (func value or interface method; allocation-freedom cannot be proven)")
	}
	return true
}

// boxingArgs flags arguments that box into interface parameters and
// variadic calls that allocate their argument slice.
func boxingArgs(info *types.Info, call *ast.CallExpr, fn *types.Func, add func(token.Pos, string)) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if sig.Variadic() {
		// f(a, b, c...) with a spread reuses the caller's slice; a
		// non-empty unspread variadic tail allocates one.
		if call.Ellipsis == token.NoPos && call.Args != nil && len(call.Args) >= params.Len() {
			if n := len(call.Args) - (params.Len() - 1); n > 0 {
				add(call.Pos(), fmt.Sprintf("variadic call to %s (allocates its %d-element argument slice)", fn.Name(), n))
			}
		}
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		at := info.TypeOf(arg)
		if pt == nil || at == nil {
			continue
		}
		if types.IsInterface(pt.Underlying()) && !types.IsInterface(at.Underlying()) &&
			!isPointerShaped(at) && !isConstNil(info, arg) {
			add(arg.Pos(), "interface boxing of a non-pointer argument (allocates)")
		}
	}
}

// capturesOuter reports whether the function literal references a
// variable declared outside itself (other than package-level state) —
// the condition under which the compiler heap-allocates a closure.
func capturesOuter(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level variable: static reference, no capture
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			found = true
		}
		return true
	})
	return found
}

func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

func isSelectorCall(fun ast.Expr) bool {
	_, ok := fun.(*ast.SelectorExpr)
	return ok
}

func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// exprMentionsCap reports whether e contains a call to the cap builtin —
// the signature of an amortized ensure-capacity guard.
func exprMentionsCap(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isBuiltinCall(info, call, "cap") {
			found = true
			return false
		}
		return !found
	})
	return found
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isPointerShaped reports whether values of t fit in an interface word
// without boxing: pointers, channels, maps, funcs, unsafe.Pointer.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

func isConstNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}
