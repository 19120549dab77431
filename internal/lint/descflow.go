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

// KillsDescriptor is the fact descflow attaches to a function that
// retires a *core.Descriptor received as a parameter: it calls Execute
// or Discard on it (directly, deferred, or by forwarding it to another
// killer). After such a call returns, the caller's handle is dead
// (§4.1) — using it races with the helping machinery and the pool's
// recycling of the slot.
type KillsDescriptor struct {
	Params []int // parameter indices retired by the time the function returns
}

// AFact marks KillsDescriptor as a serializable analysis fact.
func (*KillsDescriptor) AFact() {}

func (f *KillsDescriptor) String() string { return fmt.Sprintf("KillsDescriptor%v", f.Params) }

func (f *KillsDescriptor) indices() *[]int { return &f.Params }

// ReturnsDeadDescriptor is the fact descflow attaches to a function that
// returns a descriptor it has already retired: the result is dead on
// arrival and must not be touched by the caller.
type ReturnsDeadDescriptor struct {
	Results []int // result indices that are already-retired descriptors
}

// AFact marks ReturnsDeadDescriptor as a serializable analysis fact.
func (*ReturnsDeadDescriptor) AFact() {}

func (f *ReturnsDeadDescriptor) String() string {
	return fmt.Sprintf("ReturnsDeadDescriptor%v", f.Results)
}

func (f *ReturnsDeadDescriptor) indices() *[]int { return &f.Results }

// DescFlow reports uses of a *core.Descriptor after Execute or Discard.
// A descriptor is single-shot (paper §4.1): Execute hands it to the
// helping/recycling machinery, and Discard returns it to the pool.
// Touching it afterwards races with concurrent helpers and with the
// pool's reuse of the slot — AddWord on an executed descriptor can
// corrupt an unrelated in-flight PMwCAS. The retirement may happen in
// the same body or inside a callee — a commit helper, a cleanup
// function: DescFlow exports KillsDescriptor / ReturnsDeadDescriptor
// facts from the callee's package and replays them at every call site,
// so `commit(d)` followed by `d.AddWord(...)` is flagged even when commit
// lives three packages away.
var DescFlow = &analysis.Analyzer{
	Name: "descflow",
	Doc: "report a *core.Descriptor used after Execute/Discard retired it, in the same body or in a callee " +
		"(descriptors are single-shot; allocate a fresh one per operation, paper §4.1)",
	Requires:  []*analysis.Analyzer{Suppress, inspect.Analyzer, ctrlflow.Analyzer},
	FactTypes: []analysis.Fact{(*KillsDescriptor)(nil), (*ReturnsDeadDescriptor)(nil)},
	Run:       runDescFlow,
}

func isDescType(t types.Type) bool { return t != nil && isNamed(t, corePath, "Descriptor") }

func runDescFlow(pass *analysis.Pass) (interface{}, error) {
	sup := suppressionsOf(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	kills := newFactTable[KillsDescriptor](pass)
	dead := newFactTable[ReturnsDeadDescriptor](pass)
	dc := &descFlowChecker{pass: pass, sup: sup, kills: indicesOf(kills), dead: indicesOf(dead)}

	// Phase 1: grow KillsDescriptor, then ReturnsDeadDescriptor (which
	// reads kills), so chains of forwarding helpers resolve in any source
	// order. The contract binds in test files too, so their declarations
	// take part (the table exports no test-file facts). Core's helping
	// machinery retires other threads' descriptors by design, so core
	// derives no facts; its own bodies are still checked for direct kills.
	var decls []funcDecl
	if !pkgExempt(pass.Pkg.Path()) {
		decls = funcDecls(pass, true)
	}
	growIndices(kills, decls, dc.killedParams)
	growIndices(dead, decls, dc.deadResults)

	// Phase 2: replay the facts at every call site.
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				dc.checkBody(cfgs.FuncDecl(fn))
			}
		case *ast.FuncLit:
			dc.checkBody(cfgs.FuncLit(fn))
		}
	})
	return nil, nil
}

type descFlowChecker struct {
	pass  *analysis.Pass
	sup   *suppressions
	kills func(*types.Func) []int // KillsDescriptor's parameter indices
	dead  func(*types.Func) []int // ReturnsDeadDescriptor's result indices
}

// directKill reports whether call is Execute or Discard invoked on an
// identifier, returning that identifier and its variable.
func (dc *descFlowChecker) directKill(call *ast.CallExpr) (*ast.Ident, *types.Var, bool) {
	info := dc.pass.TypesInfo
	name, recv, recvType, ok := methodCall(info, call)
	if !ok || !isDescType(recvType) || (name != "Execute" && name != "Discard") {
		return nil, nil, false
	}
	id, ok := ast.Unparen(recv).(*ast.Ident)
	if !ok {
		return nil, nil, false
	}
	v, ok := info.Uses[id].(*types.Var)
	return id, v, ok
}

// killedArgs returns the descriptor variables that call retires in a
// callee: arguments at a KillsDescriptor position.
func (dc *descFlowChecker) killedArgs(call *ast.CallExpr) []*types.Var {
	var out []*types.Var
	for _, pi := range dc.kills(calleeFunc(dc.pass.TypesInfo, call)) {
		if pi >= len(call.Args) {
			continue
		}
		if id, ok := ast.Unparen(call.Args[pi]).(*ast.Ident); ok {
			if v, ok := dc.pass.TypesInfo.Uses[id].(*types.Var); ok && isDescType(v.Type()) {
				out = append(out, v)
			}
		}
	}
	return out
}

// killedParams computes which of d's parameters are retired by the time
// the function returns. Deferred kills count — the descriptor is dead
// once the function has returned.
func (dc *descFlowChecker) killedParams(d funcDecl) map[int]bool {
	info := dc.pass.TypesInfo
	params := paramsOf(info, d.decl)
	index := make(map[*types.Var]int, len(params))
	for i, v := range params {
		if isDescType(v.Type()) {
			index[v] = i
		}
	}
	if len(index) == 0 {
		return nil
	}
	killed := make(map[int]bool)
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure may never run; don't promise a kill
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, v, ok := dc.directKill(call); ok {
			if i, isParam := index[v]; isParam {
				killed[i] = true
			}
			return true
		}
		for _, v := range dc.killedArgs(call) {
			if i, isParam := index[v]; isParam {
				killed[i] = true
			}
		}
		return true
	})
	return killed
}

// deadResults computes which of d's results are descriptors that are
// already retired at return. The approximation is positional: a kill of
// v earlier in the source with no later rebind, or a deferred kill of v
// anywhere, makes `return v` dead.
func (dc *descFlowChecker) deadResults(d funcDecl) map[int]bool {
	info := dc.pass.TypesInfo
	sig, ok := d.fn.Type().(*types.Signature)
	if !ok || sig.Results() == nil {
		return nil
	}
	hasDescResult := false
	for i := 0; i < sig.Results().Len(); i++ {
		if isDescType(sig.Results().At(i).Type()) {
			hasDescResult = true
		}
	}
	if !hasDescResult {
		return nil
	}

	type killRec struct {
		pos      token.Pos
		deferred bool
	}
	kills := make(map[*types.Var][]killRec)
	rebinds := make(map[*types.Var][]token.Pos)
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if _, v, ok := dc.directKill(x.Call); ok {
				kills[v] = append(kills[v], killRec{x.Pos(), true})
			}
			for _, v := range dc.killedArgs(x.Call) {
				kills[v] = append(kills[v], killRec{x.Pos(), true})
			}
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				var obj types.Object
				if x.Tok == token.DEFINE {
					obj = info.Defs[id]
				} else {
					obj = info.Uses[id]
				}
				if v, ok := obj.(*types.Var); ok && isDescType(v.Type()) {
					rebinds[v] = append(rebinds[v], id.Pos())
				}
			}
		case *ast.CallExpr:
			if _, v, ok := dc.directKill(x); ok {
				kills[v] = append(kills[v], killRec{x.Pos(), false})
			}
			for _, v := range dc.killedArgs(x) {
				kills[v] = append(kills[v], killRec{x.Pos(), false})
			}
		}
		return true
	})
	if len(kills) == 0 {
		return nil
	}

	deadAtReturn := func(v *types.Var, retPos token.Pos) bool {
		for _, k := range kills[v] {
			if k.deferred {
				return true
			}
			if k.pos >= retPos {
				continue
			}
			reboundAfter := false
			for _, rp := range rebinds[v] {
				if rp > k.pos && rp < retPos {
					reboundAfter = true
					break
				}
			}
			if !reboundAfter {
				return true
			}
		}
		return false
	}

	deadResults := make(map[int]bool)
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != sig.Results().Len() {
			return true
		}
		for i, res := range ret.Results {
			id, ok := ast.Unparen(res).(*ast.Ident)
			if !ok {
				continue
			}
			if v, ok := info.Uses[id].(*types.Var); ok && isDescType(v.Type()) && deadAtReturn(v, ret.Pos()) {
				deadResults[i] = true
			}
		}
		return true
	})
	return deadResults
}

// descFlowEvent is one descriptor-relevant action in source order within
// a CFG block. Kill events come from a direct Execute/Discard or from a
// callee's KillsDescriptor fact.
type descFlowEvent struct {
	pos    token.Pos
	v      *types.Var
	kind   int    // evUse / evKill / evAssign
	killer string // for evKill and dead-assigns: who retired it
	dead   bool   // for evAssign: RHS is an already-retired descriptor
}

const (
	evUse = iota
	evKill
	evAssign
)

func (dc *descFlowChecker) checkBody(g *cfg.CFG) {
	if g == nil {
		return
	}
	info := dc.pass.TypesInfo

	events := make([][]descFlowEvent, len(g.Blocks))
	sawKill := false
	for i, b := range g.Blocks {
		skipUse := make(map[token.Pos]bool) // ident positions that are not real uses
		for _, node := range b.Nodes {
			ast.Inspect(node, func(x ast.Node) bool {
				switch c := x.(type) {
				case *ast.FuncLit, *ast.DeferStmt:
					return false
				case *ast.AssignStmt:
					// An assignment whose RHS carries a ReturnsDeadDescriptor
					// fact deadens the variable; any other rebind revives it.
					deadFrom := make(map[int]string) // lhs index -> killer
					if len(c.Rhs) == 1 {
						if call, ok := ast.Unparen(c.Rhs[0]).(*ast.CallExpr); ok {
							fn := calleeFunc(info, call)
							for _, ri := range dc.dead(fn) {
								deadFrom[ri] = fn.FullName()
							}
						}
					}
					for li, lhs := range c.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok {
							continue
						}
						var obj types.Object
						if c.Tok == token.DEFINE {
							obj = info.Defs[id]
						} else {
							obj = info.Uses[id]
						}
						if v, ok := obj.(*types.Var); ok && isDescType(v.Type()) {
							killer, isDead := deadFrom[li]
							if len(c.Lhs) == 1 {
								killer, isDead = deadFrom[0]
							}
							events[i] = append(events[i], descFlowEvent{id.Pos(), v, evAssign, killer, isDead})
							if isDead {
								sawKill = true
							}
						}
					}
				case *ast.CallExpr:
					// The receiver or argument is handed over, not used
					// after death; the kill lands at the closing paren so
					// it orders after every argument.
					if id, v, ok := dc.directKill(c); ok {
						skipUse[id.Pos()] = true
						events[i] = append(events[i], descFlowEvent{
							c.Rparen, v, evKill, types.ExprString(c.Fun), false})
						sawKill = true
						return true
					}
					fn := calleeFunc(info, c)
					for _, pi := range dc.kills(fn) {
						if pi >= len(c.Args) {
							continue
						}
						id, ok := ast.Unparen(c.Args[pi]).(*ast.Ident)
						if !ok {
							continue
						}
						if v, ok := info.Uses[id].(*types.Var); ok && isDescType(v.Type()) {
							skipUse[id.Pos()] = true
							events[i] = append(events[i], descFlowEvent{
								c.Rparen, v, evKill, fn.FullName(), false})
							sawKill = true
						}
					}
				case *ast.Ident:
					if v, ok := info.Uses[c].(*types.Var); ok && isDescType(v.Type()) {
						events[i] = append(events[i], descFlowEvent{c.Pos(), v, evUse, "", false})
					}
				}
				return true
			})
		}
		if len(skipUse) > 0 {
			kept := events[i][:0]
			for _, e := range events[i] {
				if e.kind == evUse && skipUse[e.pos] {
					continue
				}
				kept = append(kept, e)
			}
			events[i] = kept
		}
		sort.SliceStable(events[i], func(a, b int) bool { return events[i][a].pos < events[i][b].pos })
	}
	if !sawKill {
		return
	}

	// Forward may-dataflow: a descriptor dead on any incoming path is
	// dead. State maps the variable to its killer.
	apply := func(state map[*types.Var]string, evs []descFlowEvent) map[*types.Var]string {
		out := make(map[*types.Var]string, len(state))
		for v, k := range state {
			out[v] = k
		}
		for _, e := range evs {
			switch e.kind {
			case evKill:
				out[e.v] = e.killer
			case evAssign:
				if e.dead {
					out[e.v] = e.killer + " (returns an already-retired descriptor)"
				} else {
					delete(out, e.v)
				}
			}
		}
		return out
	}
	in := make([]map[*types.Var]string, len(g.Blocks))
	for i := range in {
		in[i] = make(map[*types.Var]string)
	}
	for changed := true; changed; {
		changed = false
		for i, b := range g.Blocks {
			out := apply(in[i], events[i])
			for _, succ := range b.Succs {
				for v, k := range out {
					if _, seen := in[succ.Index][v]; !seen {
						in[succ.Index][v] = k
						changed = true
					}
				}
			}
		}
	}
	reported := make(map[token.Pos]bool)
	for i := range g.Blocks {
		state := apply(in[i], nil)
		for _, e := range events[i] {
			switch e.kind {
			case evKill, evAssign:
				state = apply(state, []descFlowEvent{e})
			case evUse:
				killer, isDead := state[e.v]
				if !isDead || reported[e.pos] {
					continue
				}
				reported[e.pos] = true
				if ok, note := dc.sup.allowed(e.pos, "descflow"); !ok {
					dc.pass.Reportf(e.pos,
						"descriptor %s used after %s retired it; descriptors are single-shot — "+
							"allocate a fresh one with AllocateDescriptor (paper §4.1)%s",
						e.v.Name(), killer, note)
				}
			}
		}
	}
}
