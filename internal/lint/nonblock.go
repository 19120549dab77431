package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/cfg"
)

// MayBlock is the fact nonblock attaches to a function that can park
// its goroutine: it contains an unsuppressed blocking operation
// (channel op, select, sync lock/wait, time.Sleep, a call into an
// OS/syscall package) or calls a function carrying this fact. A
// reasoned //lint:allow nonblock at the operation — the documented
// bounded-critical-section waiver — stops the propagation at its
// source, which is what keeps the fact meaningful: without the waiver
// every index operation would inherit MayBlock from the allocator's
// free-list mutex three hops down.
type MayBlock struct {
	Op string // the blocking operation, for diagnostics at call sites
}

// AFact marks MayBlock as a serializable analysis fact.
func (*MayBlock) AFact() {}

func (f *MayBlock) String() string { return "MayBlock(" + f.Op + ")" }

// NonBlock verifies the progress half of the lock-free fast-path
// contract (DESIGN.md §6.3): inside an epoch-guarded region — where
// guardfact's guard dataflow says a Guard.Enter is held on some path —
// and anywhere in the body of a function annotated //pmwcas:hotpath or
// //pmwcas:requires-guard (which executes inside its caller's guard or
// a descriptor-helping region), the code must not park the goroutine:
// no channel operations or select, no sync.Mutex/RWMutex lock,
// WaitGroup or Cond wait, sync.Once, no time.Sleep, and no calls into
// os/net/syscall. A parked guard stalls epoch reclamation for every
// thread and turns the lock-free helping protocol into a convoy.
//
// Blocking is detected syntactically at the primitive and propagated
// interprocedurally as a MayBlock fact; calls to MayBlock functions
// inside a checked region are findings. Dynamic calls (func values,
// interface methods) in a checked region cannot be proven and are
// findings too.
var NonBlock = &analysis.Analyzer{
	Name: "nonblock",
	Doc: "report blocking operations inside epoch-guarded or descriptor-helping regions; " +
		"exports MayBlock facts (DESIGN.md §6.3)",
	Requires:  []*analysis.Analyzer{Suppress, inspect.Analyzer, ctrlflow.Analyzer},
	FactTypes: []analysis.Fact{(*MayBlock)(nil)},
	Run:       runNonBlock,
}

// syscallPkgs are packages whose calls are assumed to reach the OS.
var syscallPkgs = map[string]bool{
	"os":      true,
	"net":     true,
	"syscall": true,
}

// nbOp is one blocking operation (suppression-filtered) or one call
// whose blocking-freedom depends on the callee.
type nbOp struct {
	pos  token.Pos
	what string
	// fn is non-nil for static calls: blocking iff the callee carries a
	// MayBlock fact. dynamic marks unprovable calls, reported only
	// inside checked regions.
	fn      *types.Func
	dynamic bool
}

type nbSummary struct {
	ops       []nbOp // syntactic blocking ops, already suppression-filtered
	calls     []nbOp // static and dynamic calls
	wholeBody bool   // annotated hotpath/requires-guard: entire body is a checked region
}

func runNonBlock(pass *analysis.Pass) (interface{}, error) {
	sup := suppressionsOf(pass)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	// Phase 1: summarize.
	decls := funcDecls(pass, false)
	sums := make(map[*types.Func]*nbSummary, len(decls))
	for _, d := range decls {
		s := &nbSummary{wholeBody: hasAnnotation(d.decl, hotpathAnnotation) || hasAnnotation(d.decl, guardAnnotation)}
		scanBlockOps(pass, sup, d.decl.Body, s)
		sums[d.fn] = s
	}

	// Phase 2: MayBlock, a least fixpoint over the local call graph,
	// seeded by syntactic ops and imported facts. Suppressed calls to
	// MayBlock callees are waived and stop the propagation.
	//
	// Imported facts are trusted only for this module's packages (and the
	// test fixtures). Under go vet the analyzer also runs over stdlib
	// dependencies, where bounded mutexes guard lazy caches (reflect's
	// layout cache, sync.Map's dirty promotion, fmt via both): treating
	// those as parking hazards would taint nearly every formatted error.
	// Direct blocking — sync primitives, time.Sleep, channel ops, calls
	// into os/net/syscall — is still caught syntactically at every call
	// site in this repo.
	mayBlock := newFactTable[MayBlock](pass)
	mayBlock.trust = func(p *types.Package) bool {
		return strings.HasPrefix(p.Path(), "pmwcas/") || strings.HasPrefix(p.Path(), "fixtures/")
	}
	waived := make(map[token.Pos]bool)
	solveCallGraph(mayBlock, decls, false,
		func(d funcDecl) *MayBlock {
			if ops := sums[d.fn].ops; len(ops) > 0 {
				return &MayBlock{Op: ops[0].what}
			}
			return nil
		},
		func(d funcDecl) *MayBlock {
			for _, c := range sums[d.fn].calls {
				if c.dynamic || waived[c.pos] {
					continue
				}
				f := mayBlock.of(c.fn)
				if f == nil {
					continue
				}
				if ok, _ := sup.allowed(c.pos, "nonblock"); ok {
					waived[c.pos] = true
					continue
				}
				return &MayBlock{Op: f.Op}
			}
			return nil
		})

	// Phase 3: report ops and risky calls inside checked regions.
	for _, d := range decls {
		s := sums[d.fn]
		if len(s.ops) == 0 && len(s.calls) == 0 {
			continue
		}
		checkBlockingRegions(pass, sup, d.fn, s, cfgs.FuncDecl(d.decl), mayBlock.of, waived)
	}
	return nil, nil
}

// checkBlockingRegions runs the may-held-guard dataflow over the
// function's CFG and reports every blocking op, MayBlock call, and
// dynamic call that some path reaches with a guard held (or anywhere,
// for wholeBody contracts).
func checkBlockingRegions(pass *analysis.Pass, sup *suppressions, fn *types.Func, s *nbSummary,
	g *cfg.CFG, mayBlock func(*types.Func) *MayBlock, waived map[token.Pos]bool) {
	if g == nil {
		return
	}
	info := pass.TypesInfo

	report := func(op nbOp, where string) {
		switch {
		case op.dynamic:
			if ok, note := sup.allowed(op.pos, "nonblock"); !ok {
				pass.Reportf(op.pos,
					"dynamic call (func value or interface method) %s; it cannot be proven non-blocking — "+
						"a parked guard stalls epoch reclamation for every thread (§6.3)%s", where, note)
			}
		case op.fn != nil:
			mb := mayBlock(op.fn)
			if mb == nil || waived[op.pos] {
				return
			}
			if ok, note := sup.allowed(op.pos, "nonblock"); !ok {
				pass.Reportf(op.pos,
					"call to %s, which may block (%s), %s — a parked guard stalls epoch reclamation "+
						"for every thread; restructure, or waive with a reasoned //lint:allow nonblock (§6.3)%s",
					op.fn.FullName(), mb.Op, where, note)
			}
		default:
			// Syntactic ops were suppression-filtered at summary time.
			pass.Reportf(op.pos,
				"%s %s — a parked guard stalls epoch reclamation for every thread; "+
					"restructure, or waive with a reasoned //lint:allow nonblock (§6.3)", op.what, where)
		}
	}

	if s.wholeBody {
		where := "in " + fn.Name() + ", whose annotation promises it runs inside a guarded or helping region"
		for _, op := range s.ops {
			report(op, where)
		}
		for _, op := range s.calls {
			report(op, where)
		}
		return
	}

	// Place each candidate op in its CFG block during guardfact's event
	// scan, then ask the may-held state — a union over predecessors, the
	// dual of guardfact's dominance meet — whether some guarded path
	// reaches it.
	type placed struct {
		block int
		op    nbOp
	}
	var ops []placed
	opIndex := make(map[token.Pos][]nbOp, len(s.ops)+len(s.calls))
	for _, op := range s.ops {
		opIndex[op.pos] = append(opIndex[op.pos], op)
	}
	for _, op := range s.calls {
		opIndex[op.pos] = append(opIndex[op.pos], op)
	}
	flow := newGuardFlow(info, g, func(block int, _, n ast.Node) {
		pending, ok := opIndex[n.Pos()]
		if !ok {
			return
		}
		var keep []nbOp
		for _, op := range pending {
			if opNodeMatches(n, op) {
				ops = append(ops, placed{block, op})
			} else {
				keep = append(keep, op)
			}
		}
		if len(keep) == 0 {
			delete(opIndex, n.Pos())
		} else {
			opIndex[n.Pos()] = keep
		}
	})
	if len(ops) == 0 {
		return
	}
	may := flow.solve(false)
	for _, p := range ops {
		if len(flow.held(may[p.block], p.block, p.op.pos)) > 0 {
			report(p.op, "inside an epoch-guarded region")
		}
	}

	// Safety net: an op the CFG node walk could not place (a construct
	// the builder decomposes without recording a node at the op's
	// position). If the function enters a guard anywhere, report the op
	// conservatively rather than silently dropping it.
	if len(opIndex) > 0 {
		entersGuard := false
		for i := range flow.events {
			for _, e := range flow.events[i] {
				if e.enter {
					entersGuard = true
				}
			}
		}
		if entersGuard {
			for _, pending := range opIndex {
				for _, op := range pending {
					report(op, "inside a function that enters an epoch guard (conservatively: the op could not be placed in the control-flow graph)")
				}
			}
		}
	}
}

// opNodeMatches guards against position collisions: an op recorded at a
// position is claimed only by a node of the right shape.
func opNodeMatches(n ast.Node, op nbOp) bool {
	if op.fn != nil || op.dynamic {
		_, ok := n.(*ast.CallExpr)
		return ok
	}
	return true
}

// scanBlockOps walks one function body collecting blocking operations
// (suppressions waive them and stop MayBlock propagation at the source)
// and outgoing calls. Function literals are their own goroutine-agnostic
// scopes and deferred statements run at return, outside the guarded
// flow — both are skipped, mirroring guardfact.
func scanBlockOps(pass *analysis.Pass, sup *suppressions, body *ast.BlockStmt, s *nbSummary) {
	info := pass.TypesInfo
	add := func(pos token.Pos, what string) {
		if ok, _ := sup.allowed(pos, "nonblock"); ok {
			return
		}
		s.ops = append(s.ops, nbOp{pos: pos, what: what})
	}
	// Communication statements of a select are part of the select, not
	// independent blocking ops (and a select with a default clause is a
	// non-blocking poll): collect their spans so the channel-op cases
	// below can skip them.
	type span struct{ lo, hi token.Pos }
	var commSpans []span
	inComm := func(pos token.Pos) bool {
		for _, s := range commSpans {
			if pos >= s.lo && pos < s.hi {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok {
			for _, cl := range sel.Body.List {
				if comm := cl.(*ast.CommClause).Comm; comm != nil {
					commSpans = append(commSpans, span{comm.Pos(), comm.End()})
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			if !inComm(x.Pos()) {
				add(x.Pos(), "channel send")
			}
			return true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !inComm(x.Pos()) {
				add(x.Pos(), "channel receive")
			}
			return true
		case *ast.SelectStmt:
			// A select parks unless it has a default clause. The op is
			// recorded at the first communication statement — the node
			// the CFG builder actually places in a block (the bare
			// SelectStmt never appears in block node lists).
			hasDefault := false
			var firstComm ast.Stmt
			for _, cl := range x.Body.List {
				cc := cl.(*ast.CommClause)
				if cc.Comm == nil {
					hasDefault = true
				} else if firstComm == nil {
					firstComm = cc.Comm
				}
			}
			if !hasDefault {
				pos := x.Pos()
				if firstComm != nil {
					pos = firstComm.Pos()
				}
				add(pos, "select statement without a default clause")
			}
			return true
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					// Recorded at the range expression, the node the CFG
					// builder places in a block.
					add(x.X.Pos(), "range over channel")
				}
			}
			return true
		case *ast.CallExpr:
			if what, ok := blockingCall(info, x); ok {
				add(x.Pos(), what)
				return true
			}
			fun := ast.Unparen(x.Fun)
			if tv, ok := info.Types[fun]; ok && tv.IsType() {
				return true // conversion
			}
			if id, ok := fun.(*ast.Ident); ok {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					// A panicking path has already abandoned the region's
					// progress guarantee; whatever its arguments call (fmt,
					// usually) is failure-path work, not a parked guard.
					return id.Name != "panic"
				}
			}
			if fn := calleeFunc(info, x); fn != nil && !isInterfaceMethod(fn) {
				if fn.Pkg() != nil && syscallPkgs[fn.Pkg().Path()] {
					add(x.Pos(), "call into package "+fn.Pkg().Path()+" (reaches the OS)")
					return true
				}
				s.calls = append(s.calls, nbOp{pos: x.Pos(), fn: fn})
				return true
			}
			if _, ok := fun.(*ast.Ident); ok || isSelectorCall(fun) {
				s.calls = append(s.calls, nbOp{pos: x.Pos(), dynamic: true})
			}
			return true
		}
		return true
	})
}

// blockingCall recognizes the sync and timer primitives that park the
// calling goroutine.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if name, _, recvType, ok := methodCall(info, call); ok {
		if recvType == nil {
			return "", false
		}
		t := recvType
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		named, isNamed := t.(*types.Named)
		if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
			return "", false
		}
		switch named.Obj().Name() + "." + name {
		case "Mutex.Lock", "RWMutex.Lock", "RWMutex.RLock",
			"WaitGroup.Wait", "Cond.Wait", "Once.Do":
			return "sync." + named.Obj().Name() + "." + name, true
		}
		return "", false
	}
	if fn := calleeFunc(info, call); fn != nil {
		if fn.FullName() == "time.Sleep" {
			return "time.Sleep", true
		}
	}
	return "", false
}
