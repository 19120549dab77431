package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"
)

// StoreFence reports Device.Store calls that are never followed by a
// write-back on any path out of the function. A store only reaches the
// cache view; until the line is flushed (CLWB) and fenced, a crash
// discards it (paper §3). A function that stores and returns without any
// reachable Flush publishes state that recovery will never see.
//
// The check is deliberately one-sided: it fires only when no path after
// the store contains a write-back: a flush-like call (Device.Flush /
// FlushAll, core.Persist / PCASFlush, or any callee whose name contains
// "flush" or "persist") or a handoff. A handoff —
// (*alloc.Handle).Activate or (*core.Descriptor).ReserveEntry — takes a
// reserved block the function filled and writes back every line of the
// reservation (isHandoff); Activate fences itself, and the descriptor's Execute
// fences a ReserveEntry's write-back before it sets the bit. So the
// stores that filled the block need no flush of their own.
// Functions that write back on the happy path but not on error unwinds
// are accepted — the unwind discards the work anyway.
var StoreFence = &analysis.Analyzer{
	Name: "storefence",
	Doc: "report Device.Store with no subsequent Flush on any path to return " +
		"(unflushed stores are discarded by a crash, paper §3)",
	Requires: []*analysis.Analyzer{Suppress, inspect.Analyzer, ctrlflow.Analyzer},
	Run:      runStoreFence,
}

func runStoreFence(pass *analysis.Pass) (interface{}, error) {
	if pkgExempt(pass.Pkg.Path()) {
		return nil, nil
	}
	sup := suppressionsOf(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	check := func(g *cfg.CFG) {
		if g != nil {
			checkStores(pass, sup, g)
		}
	}
	skip := func(pos token.Pos) bool {
		if isTestFile(pass.Fset, pos) {
			return true
		}
		f := fileAt(pass, pos)
		return f == nil || !refersToCore(f)
	}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil && !skip(fn.Pos()) {
				check(cfgs.FuncDecl(fn))
			}
		case *ast.FuncLit:
			if !skip(fn.Pos()) {
				check(cfgs.FuncLit(fn))
			}
		}
	})
	return nil, nil
}

// flushLike reports whether the subtree contains a call that writes lines
// back: Device.Flush/FlushAll, core.Persist/PCASFlush, any callee whose
// name contains "flush" or "persist" (local helpers like flushRange), or
// a handoff of a reserved block.
func flushLike(pass *analysis.Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isHandoff(pass.TypesInfo, call) {
			found = true
			return false
		}
		var callee string
		switch f := call.Fun.(type) {
		case *ast.Ident:
			callee = f.Name
		case *ast.SelectorExpr:
			callee = f.Sel.Name
		default:
			return true
		}
		lc := strings.ToLower(callee)
		if strings.Contains(lc, "flush") || strings.Contains(lc, "persist") {
			found = true
			return false
		}
		return true
	})
	return found
}

func checkStores(pass *analysis.Pass, sup *suppressions, g *cfg.CFG) {
	// Precompute, per block, whether it contains any flush-like node, and
	// collect the store calls (excluding nested FuncLits: they have their
	// own CFG and their own obligations).
	type storeSite struct {
		call  *ast.CallExpr
		block int
	}
	var stores []storeSite
	blockFlushes := make([]bool, len(g.Blocks))
	for i, b := range g.Blocks {
		for _, node := range b.Nodes {
			if flushLike(pass, node) {
				blockFlushes[i] = true
			}
			ast.Inspect(node, func(x ast.Node) bool {
				if _, ok := x.(*ast.FuncLit); ok {
					return false
				}
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				if m, ok := deviceCall(pass.TypesInfo, call); ok && m == "Store" {
					stores = append(stores, storeSite{call, i})
				}
				return true
			})
		}
	}
	if len(stores) == 0 {
		return
	}

	// reachFlush[i]: a flush-like node is reachable from the start of
	// block i (inclusive), computed by reverse fixpoint.
	reachFlush := make([]bool, len(g.Blocks))
	for i := range g.Blocks {
		reachFlush[i] = blockFlushes[i]
	}
	for changed := true; changed; {
		changed = false
		for i, b := range g.Blocks {
			if reachFlush[i] {
				continue
			}
			for _, s := range b.Succs {
				if reachFlush[s.Index] {
					reachFlush[i] = true
					changed = true
					break
				}
			}
		}
	}

	for _, s := range stores {
		// A flush after the store: either later in its own block, or
		// anywhere reachable from a successor.
		covered := false
		for _, node := range g.Blocks[s.block].Nodes {
			if node.Pos() > s.call.End() && flushLike(pass, node) {
				covered = true
				break
			}
		}
		if !covered {
			for _, succ := range g.Blocks[s.block].Succs {
				if reachFlush[succ.Index] {
					covered = true
					break
				}
			}
		}
		if covered {
			continue
		}
		if ok, note := sup.allowed(s.call.Pos(), "storefence"); !ok {
			pass.Reportf(s.call.Pos(),
				"Device.Store is never followed by a Flush on any path out of this function; "+
					"a crash discards the store — flush the line (and Fence) before returning (paper §3)%s", note)
		}
	}
}
