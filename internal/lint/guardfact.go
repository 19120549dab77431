package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"
)

// RequiresGuard is the fact guardfact attaches to a function that
// dereferences epoch-protected arena memory on behalf of its caller: the
// caller must hold an active epoch.Guard across the call, or a concurrent
// deleter may reclaim the memory mid-read (§5.1). The fact is declared
// with a //pmwcas:requires-guard annotation in the function's doc
// comment, which is how the obligation propagates: annotating a function
// silences the in-body diagnostics and moves the check to every call
// site, across package boundaries.
type RequiresGuard struct{}

// AFact marks RequiresGuard as a serializable analysis fact.
func (*RequiresGuard) AFact() {}

func (*RequiresGuard) String() string { return "RequiresGuard" }

// ReadsWord is the fact guardfact attaches to a function that performs a
// PMwCAS protocol read whose target offset derives from one of its
// parameters. A call passing a managed-word offset at such a position is
// an epoch-protected dereference happening at the call site, even though
// the Load lives in the callee — this is how reader helpers like
// skiplist's (*Handle).read are seen through.
type ReadsWord struct {
	Params []int // parameter indices whose value reaches a protocol read target
}

// AFact marks ReadsWord as a serializable analysis fact.
func (*ReadsWord) AFact() {}

func (f *ReadsWord) String() string { return fmt.Sprintf("ReadsWord%v", f.Params) }

func (f *ReadsWord) indices() *[]int { return &f.Params }

// guardAnnotation is the doc-comment marker declaring that a function
// must be called under an active epoch guard.
const guardAnnotation = "//pmwcas:requires-guard"

// GuardFact enforces the epoch-guard contract (§5.1). Pairing: a
// function that calls Guard.Enter must guarantee a matching Guard.Exit on
// every non-panicking path out of it — in practice `defer g.Exit()` —
// and a Guard must never cross a goroutine boundary: guards are
// goroutine-affine, and a guard shared between goroutines corrupts the
// manager's minimum-protected-epoch computation. Pairing binds in every
// package and in test files.
//
// Coverage: a protocol read of a PMwCAS-managed word — direct, or through
// a helper that carries a ReadsWord fact, or inside a callee annotated
// //pmwcas:requires-guard — must be dominated by an active Guard.Enter:
// on every path from the function's entry to the read there is an Enter
// with no intervening Exit (a forward must-dataflow over the go/cfg
// graph). Single-threaded contexts (§4.4 recovery, first-open
// initialization) suppress with a cited reason; helpers that run under
// their caller's guard declare it with the annotation, which exports the
// RequiresGuard fact and moves the obligation to their callers — in this
// package or any importing one.
var GuardFact = &analysis.Analyzer{
	Name: "guardfact",
	Doc: "report Guard.Enter without a matching Exit on every return path, guards escaping to goroutines, and " +
		"epoch-protected dereferences not dominated by an active Guard.Enter " +
		"(//pmwcas:requires-guard pushes the obligation to callers; §5.1)",
	Requires:  []*analysis.Analyzer{Suppress, inspect.Analyzer, ctrlflow.Analyzer},
	FactTypes: []analysis.Fact{(*RequiresGuard)(nil), (*ReadsWord)(nil)},
	Run:       runGuardFact,
}

func runGuardFact(pass *analysis.Pass) (interface{}, error) {
	sup := suppressionsOf(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	// Pairing and goroutine affinity bind in every package and file,
	// tests included.
	var goLits []*ast.FuncLit
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil), (*ast.GoStmt)(nil)}, func(n ast.Node) {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				checkGuardPairing(pass, sup, fn.Body, cfgs.FuncDecl(fn))
			}
		case *ast.FuncLit:
			checkGuardPairing(pass, sup, fn.Body, cfgs.FuncLit(fn))
		case *ast.GoStmt:
			checkGuardEscape(pass, sup, fn)
			if lit, ok := fn.Call.Fun.(*ast.FuncLit); ok {
				goLits = append(goLits, lit)
			}
		}
	})
	if pkgExempt(pass.Pkg.Path()) {
		return nil, nil // core and nvram implement the protocol; the coverage contract binds their clients
	}

	readsWord := newFactTable[ReadsWord](pass)
	gc := &guardChecker{
		pass:      pass,
		sup:       sup,
		managed:   managedSet(pass),
		annotated: newFactTable[RequiresGuard](pass),
		readsWord: indicesOf(readsWord),
	}

	// Phase 1: //pmwcas:requires-guard annotations declare RequiresGuard.
	decls := funcDecls(pass, false)
	for _, d := range decls {
		if hasAnnotation(d.decl, guardAnnotation) {
			gc.annotated.local[d.fn] = &RequiresGuard{}
		}
	}
	gc.annotated.export()

	// Phase 2: ReadsWord, so reader helpers that wrap other reader
	// helpers resolve in any source order.
	growIndices(readsWord, decls, gc.readerParams)

	// Phase 3: check every function body. Annotated functions are skipped
	// (their contract moves the obligation to callers); goroutine literals
	// are independent scopes — a guard held at spawn time is
	// goroutine-affine and does not travel into the new goroutine.
	for _, d := range decls {
		if gc.annotated.local[d.fn] == nil {
			gc.checkCoverage(cfgs.FuncDecl(d.decl), false)
		}
	}
	for _, lit := range goLits {
		if !isTestFile(pass.Fset, lit.Pos()) {
			gc.checkCoverage(cfgs.FuncLit(lit), true)
		}
	}
	return nil, nil
}

type guardChecker struct {
	pass      *analysis.Pass
	sup       *suppressions
	managed   map[string]bool
	annotated *factTable[RequiresGuard, *RequiresGuard]
	readsWord func(*types.Func) []int // ReadsWord's parameter indices
}

// protocolReadTarget returns the offset expression of a protocol read:
// core.PCASRead, (*core.Handle).Read, or a raw Device.Load (the latter
// only in files that participate in the protocol — volatile baselines
// never import core and stay exempt).
func (gc *guardChecker) protocolReadTarget(call *ast.CallExpr) ast.Expr {
	info := gc.pass.TypesInfo
	if name, recv, _, ok := methodCall(info, call); ok {
		if isNamedRecv(info, recv, corePath, "Handle") && name == "Read" && len(call.Args) > 0 {
			return call.Args[0]
		}
		if isNamed(info.TypeOf(recv), nvramPath, "Device") && name == "Load" && len(call.Args) > 0 {
			if f := fileAt(gc.pass, call.Pos()); f != nil && refersToCore(f) {
				return call.Args[0]
			}
		}
		return nil
	}
	if name, ok := pkgFunc(info, call); ok && name == "PCASRead" && len(call.Args) > 1 {
		return call.Args[1]
	}
	return nil
}

// paramsOf returns the declared parameter variables of the function
// declaration, in signature order.
func paramsOf(info *types.Info, d *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	for _, field := range d.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// readerParams computes which of d's parameters flow into a protocol
// read target, directly or through another reader helper.
func (gc *guardChecker) readerParams(d funcDecl) map[int]bool {
	info := gc.pass.TypesInfo
	params := paramsOf(info, d.decl)
	if len(params) == 0 {
		return nil
	}
	index := make(map[*types.Var]int, len(params))
	for i, v := range params {
		index[v] = i
	}
	out := make(map[int]bool)
	mark := func(off ast.Expr) {
		ast.Inspect(off, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok {
					if i, isParam := index[v]; isParam {
						out[i] = true
					}
				}
			}
			return true
		})
	}
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if off := gc.protocolReadTarget(call); off != nil {
			mark(off)
			return true
		}
		for _, i := range gc.readsWord(calleeFunc(info, call)) {
			if i < len(call.Args) {
				mark(call.Args[i])
			}
		}
		return true
	})
	return out
}

// checkCoverage reports every epoch-protected dereference in g that is
// not dominated by an active Guard.Enter. goroutineScope marks a
// go-statement function literal, whose diagnostics explain that the
// spawner's guard does not travel.
func (gc *guardChecker) checkCoverage(g *cfg.CFG, goroutineScope bool) {
	if g == nil {
		return
	}
	info := gc.pass.TypesInfo
	type guardOp struct {
		block int
		pos   token.Pos
		what  string
		goRun bool // the op is the operand of a go statement: never protected
	}
	var ops []guardOp
	flow := newGuardFlow(info, g, func(block int, top, n ast.Node) {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		add := func(format string, args ...interface{}) {
			gs, inGo := top.(*ast.GoStmt)
			ops = append(ops, guardOp{block, c.Pos(), fmt.Sprintf(format, args...), inGo && gs.Call == c})
		}
		if off := gc.protocolReadTarget(c); off != nil {
			if name, shares := sharesFingerprint(info, off, gc.managed); shares {
				add("read of PMwCAS-managed word (offset names %q)", name)
			}
			return
		}
		fn := calleeFunc(info, c)
		if gc.annotated.has(fn) {
			add("call to %s, which is annotated //pmwcas:requires-guard", fn.FullName())
			return
		}
		for _, pi := range gc.readsWord(fn) {
			if pi >= len(c.Args) {
				continue
			}
			if name, shares := sharesFingerprint(info, c.Args[pi], gc.managed); shares {
				add("call to %s dereferencing PMwCAS-managed word (offset names %q)", fn.FullName(), name)
				break
			}
		}
	})
	if len(ops) == 0 {
		return
	}
	must := flow.solve(true)
	for _, op := range ops {
		if must[op.block] == nil {
			continue // unreachable
		}
		if len(flow.held(must[op.block], op.block, op.pos)) > 0 && !op.goRun {
			continue
		}
		ok, note := gc.sup.allowed(op.pos, "guardfact")
		switch {
		case ok: // suppressed
		case op.goRun:
			gc.pass.Reportf(op.pos,
				"%s started as a goroutine; the spawner's guard is goroutine-affine and does not travel — "+
					"Register a guard and Enter it inside the goroutine (§5.1)%s", op.what, note)
		case goroutineScope:
			gc.pass.Reportf(op.pos,
				"%s inside a goroutine with no active epoch guard; the spawner's guard does not travel — "+
					"Register a guard and Enter it in this goroutine, or the memory may be reclaimed mid-read (§5.1)%s", op.what, note)
		default:
			gc.pass.Reportf(op.pos,
				"%s is not dominated by an active Guard.Enter: some path reaches it with no guard held, so a "+
					"concurrent delete may reclaim the memory mid-read (§5.1); enter a guard (defer g.Exit()), or annotate "+
					"this function //pmwcas:requires-guard to move the obligation to its callers%s", op.what, note)
		}
	}
}

// checkGuardPairing reports an Enter in body that some non-panicking exit
// leaves open. A `defer key.Exit()` anywhere in the function covers its
// receiver on every path, panics included.
func checkGuardPairing(pass *analysis.Pass, sup *suppressions, body *ast.BlockStmt, g *cfg.CFG) {
	info := pass.TypesInfo
	deferred := make(map[string]bool)
	first := make(map[string]token.Pos) // receiver key -> its first Enter
	ast.Inspect(body, func(x ast.Node) bool {
		switch c := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if method, key, ok := isGuardMethod(info, c.Call); ok && method == "Exit" {
				deferred[key] = true
			}
			return false
		case *ast.CallExpr:
			if method, key, ok := isGuardMethod(info, c); ok && method == "Enter" {
				if _, seen := first[key]; !seen {
					first[key] = c.Pos()
				}
			}
		}
		return true
	})
	for key := range deferred {
		delete(first, key)
	}
	if len(first) == 0 || g == nil {
		return
	}
	flow := newGuardFlow(info, g, nil)
	may := flow.solve(false)
	reported := make(map[string]bool)
	for i, b := range g.Blocks {
		if len(b.Succs) > 0 || !b.Live || endsInPanic(b) {
			continue
		}
		for key := range flow.held(may[i], i, token.NoPos) {
			pos, open := first[key]
			if !open || reported[key] {
				continue
			}
			reported[key] = true
			if ok, note := sup.allowed(pos, "guardfact"); !ok {
				pass.Reportf(pos,
					"%s.Enter() is not matched by an Exit on every return path; use `defer %s.Exit()` "+
						"(an open guard pins the epoch and blocks reclamation forever, paper §5.1)%s",
					key, key, note)
			}
		}
	}
}

// endsInPanic reports whether the block's last node is a call to the
// panic builtin: a panicking path is allowed to leave a guard open (the
// process is going down; deferred Exits still run where they exist).
func endsInPanic(b *cfg.Block) bool {
	if len(b.Nodes) == 0 {
		return false
	}
	stmt, ok := b.Nodes[len(b.Nodes)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := stmt.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// checkGuardEscape reports epoch.Guard values crossing into a goroutine:
// as arguments of the go call, or captured by the goroutine's function
// literal.
func checkGuardEscape(pass *analysis.Pass, sup *suppressions, g *ast.GoStmt) {
	info := pass.TypesInfo
	isGuardType := func(t types.Type) bool { return t != nil && isNamed(t, epochPath, "Guard") }
	report := func(pos token.Pos, how string) {
		if ok, note := sup.allowed(pos, "guardfact"); !ok {
			pass.Reportf(pos,
				"epoch.Guard %s; guards are goroutine-affine — call Register() in the new goroutine instead (paper §5.1)%s",
				how, note)
		}
	}
	for _, arg := range g.Call.Args {
		if isGuardType(info.TypeOf(arg)) {
			report(arg.Pos(), "passed as an argument to a goroutine")
		}
	}
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		// A free variable is declared outside the literal.
		if obj, ok := info.Uses[id].(*types.Var); ok && isGuardType(obj.Type()) &&
			(obj.Pos() < lit.Pos() || obj.Pos() > lit.End()) {
			report(id.Pos(), "captured by a goroutine closure")
		}
		return true
	})
}

// isGuardMethod reports whether call invokes Enter or Exit on an
// epoch.Guard, returning the method name and a stable key for the
// receiver expression.
func isGuardMethod(info *types.Info, call *ast.CallExpr) (method, key string, ok bool) {
	name, recv, recvType, isM := methodCall(info, call)
	if !isM || (name != "Enter" && name != "Exit") || !isNamed(recvType, epochPath, "Guard") {
		return "", "", false
	}
	return name, types.ExprString(recv), true
}

// guardEvent is one Enter/Exit call, keyed by its receiver expression.
type guardEvent struct {
	pos   token.Pos
	key   string
	enter bool
}

// guardFlow is the Guard.Enter/Exit dataflow over one function's CFG,
// shared by guardfact and nonblock: the must-held state proves a read is
// covered, the may-held state finds a guard left open at return or a
// blocking op inside a guarded region.
type guardFlow struct {
	events [][]guardEvent // per block, in source order
	preds  [][]int
}

// newGuardFlow scans g's blocks for guard events. Nested function
// literals are their own scopes and deferred statements run at return,
// outside this flow, so neither is entered. visit, if non-nil, sees every
// other node the scan reaches, with its block and the block node that
// contains it.
func newGuardFlow(info *types.Info, g *cfg.CFG, visit func(block int, top, n ast.Node)) *guardFlow {
	f := &guardFlow{events: make([][]guardEvent, len(g.Blocks)), preds: make([][]int, len(g.Blocks))}
	for i, b := range g.Blocks {
		for _, s := range b.Succs {
			f.preds[s.Index] = append(f.preds[s.Index], i)
		}
		for _, top := range b.Nodes {
			ast.Inspect(top, func(n ast.Node) bool {
				switch c := n.(type) {
				case nil, *ast.FuncLit, *ast.DeferStmt:
					return false
				case *ast.CallExpr:
					if method, key, ok := isGuardMethod(info, c); ok {
						f.events[i] = append(f.events[i], guardEvent{c.Pos(), key, method == "Enter"})
						return true
					}
				}
				if visit != nil {
					visit(i, top, n)
				}
				return true
			})
		}
		sort.SliceStable(f.events[i], func(a, b int) bool { return f.events[i][a].pos < f.events[i][b].pos })
	}
	return f
}

// solve returns the guard keys held at each block's entry: on every path
// when must (the meet is intersection), on some path otherwise (union).
// nil marks a block no path from the entry reaches.
func (f *guardFlow) solve(must bool) []map[string]bool {
	in := make([]map[string]bool, len(f.events))
	for changed := true; changed; {
		changed = false
		for i := range in {
			var meet map[string]bool
			if i == 0 {
				meet = map[string]bool{} // nothing is held on entry
			}
			for _, p := range f.preds[i] {
				if in[p] == nil {
					continue // unreached: contributes nothing to either meet
				}
				out := f.held(in[p], p, token.NoPos)
				switch {
				case meet == nil:
					meet = out
				case must:
					for k := range meet {
						if !out[k] {
							delete(meet, k)
						}
					}
				default:
					for k := range out {
						meet[k] = true
					}
				}
			}
			if meet != nil && (in[i] == nil || !sameKeys(in[i], meet)) {
				in[i] = meet
				changed = true
			}
		}
	}
	return in
}

// held replays block's events that precede pos (all of them for NoPos)
// on top of the entry state in.
func (f *guardFlow) held(in map[string]bool, block int, pos token.Pos) map[string]bool {
	out := make(map[string]bool, len(in))
	for k := range in {
		out[k] = true
	}
	for _, e := range f.events[block] {
		if pos.IsValid() && e.pos >= pos {
			break
		}
		if e.enter {
			out[e.key] = true
		} else {
			delete(out, e.key)
		}
	}
	return out
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
