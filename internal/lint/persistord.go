package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// PersistState is the fact persistord attaches to a function whose listed
// result indices may carry a value observed from a word that is not yet
// persisted: a (*core.Handle).ReadTraverse elides the flush-before-read
// that Read performs, so the value it returns navigates correctly but must
// not become durable state. Functions annotated //pmwcas:traversal export
// the fact for every result; unannotated wrappers that forward such a
// value — directly, through a local, or through a struct they fill —
// export it for the results the value reaches, across any number of
// package hops.
type PersistState struct {
	Results []int // result indices, ascending
}

// AFact marks PersistState as a serializable analysis fact.
func (*PersistState) AFact() {}

func (f *PersistState) String() string {
	return fmt.Sprintf("PersistState%v", f.Results)
}

func (f *PersistState) indices() *[]int { return &f.Results }

// Flusher is the fact persistord attaches to a function that issues a
// Device.Flush (or FlushAll), directly or through a Flusher callee. It is
// how the checker recognises staged initialisation: a store of a
// possibly-unpersisted value is legal when a Flusher call plus a
// Device.Fence follow before the function's next commit point, because the
// destination line is then durable before anything publishes it.
type Flusher struct{}

// AFact marks Flusher as a serializable analysis fact.
func (*Flusher) AFact() {}

func (*Flusher) String() string { return "Flusher" }

// traversalAnnotation marks a function whose protocol reads may elide the
// flush-before-read (descend paths). The annotation is a contract, not a
// waiver: inside such a function the elided values are navigation-only,
// and persistord enforces exactly that.
const traversalAnnotation = "//pmwcas:traversal"

// PersistOrd verifies persist ordering around traversal flush elision
// (DESIGN.md §6.2). Three rules:
//
//  1. (*core.Handle).ReadTraverse may only be called inside a function
//     annotated //pmwcas:traversal — anywhere else the elision is a latent
//     durability leak, not an optimization.
//  2. Inside a //pmwcas:traversal function, a value observed through the
//     elided read must never flow into a store-like protocol operation:
//     traversal reads navigate, they do not publish.
//  3. Outside traversal functions, a value that arrives through a
//     PersistState fact (the result of a traversal helper, however many
//     hops away) may be stored raw only when a Flush — direct or via a
//     Flusher-fact callee — followed by a Fence appears later in the same
//     function (the staged-initialisation idiom), or a handoff does: a
//     store that fills a reserved block is made durable by the
//     (*alloc.Handle).Activate or (*core.Descriptor).ReserveEntry call
//     that takes the block, which writes back its lines (isHandoff):
//     Activate then fences, and a ReserveEntry's write-back is fenced by
//     the descriptor's Execute, before the block can be published.
//     Descriptor AddWord /
//     ReserveEntry targets are exempt: descriptor installation re-reads
//     and persists the target word at runtime before anything commits.
//
// Taint follows value identity — assignments, conversions, tuple returns,
// struct/array members filled from or read through a tainted base — the
// same contract the psan runtime sanitizer enforces dynamically by value
// matching. Arithmetic derivation breaks the static taint; the sanitizer
// remains the oracle for those flows.
var PersistOrd = &analysis.Analyzer{
	Name: "persistord",
	Doc: "verify persist ordering around traversal flush elision: ReadTraverse only under //pmwcas:traversal, " +
		"traversal values never stored, PersistState-tainted values flushed+fenced before commit (DESIGN.md §6.2)",
	Requires:  []*analysis.Analyzer{Suppress},
	FactTypes: []analysis.Fact{(*PersistState)(nil), (*Flusher)(nil)},
	Run:       runPersistOrd,
}

func runPersistOrd(pass *analysis.Pass) (interface{}, error) {
	if pkgExempt(pass.Pkg.Path()) {
		return nil, nil
	}
	sup := suppressionsOf(pass)
	info := pass.TypesInfo
	decls := funcDecls(pass, false)

	// Phase 1a — Flusher, a least fixpoint: a direct Device.Flush/FlushAll,
	// or a call to a known Flusher, makes the function a Flusher.
	flushers := newFactTable[Flusher](pass)
	flushes := func(d funcDecl) *Flusher {
		if bodyFlushes(info, d.decl.Body, flushers.has) {
			return &Flusher{}
		}
		return nil
	}
	solveCallGraph(flushers, decls, false, flushes, flushes)

	// Phase 1b — PersistState: the source is ReadTraverse, and composite
	// flow is on — the find/descend helpers return result structs, not
	// bare words. Annotated traversal functions export every result;
	// unannotated functions export the results their returns taint.
	states := newFactTable[PersistState](pass)
	rule := taintRule{
		info:      info,
		source:    func(call *ast.CallExpr) bool { return isReadTraverse(info, call) },
		results:   indicesOf(states),
		composite: true,
	}
	growIndices(states, decls, func(d funcDecl) map[int]bool {
		results := rule.track(d.decl.Body).returns(d)
		if hasAnnotation(d.decl, traversalAnnotation) {
			for i := 0; i < d.fn.Type().(*types.Signature).Results().Len(); i++ {
				results[i] = true
			}
		}
		return results
	})

	// Phase 2 — per-function checks.
	for _, d := range decls {
		checkPersistOrd(pass, sup, rule.track(d.decl.Body), flushers.has, d.decl, hasAnnotation(d.decl, traversalAnnotation))
	}
	return nil, nil
}

// bodyFlushes reports whether the body issues a flush: a direct
// Device.Flush/FlushAll or a call into a Flusher-fact function.
func bodyFlushes(info *types.Info, body ast.Node, isFlusher func(*types.Func) bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if m, ok := deviceCall(info, call); ok && (m == "Flush" || m == "FlushAll") {
			found = true
			return false
		}
		if isFlusher(calleeFunc(info, call)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isReadTraverse reports whether call is (*core.Handle).ReadTraverse.
func isReadTraverse(info *types.Info, call *ast.CallExpr) bool {
	name, recv, _, ok := methodCall(info, call)
	return ok && name == "ReadTraverse" && isNamedRecv(info, recv, corePath, "Handle")
}

// persistSinkArgs returns the indices of call's arguments that become
// durable payload through a raw store path. Descriptor installation
// (AddWord, AddWordWithPolicy, ReserveEntry) is deliberately absent: the
// PMwCAS install loop re-reads every target and persists it if dirty
// before the descriptor can commit, so those values are re-validated at
// runtime. Device.CAS's expected-old argument is likewise absent — an
// expectation is a comparison, not a publication.
func persistSinkArgs(info *types.Info, call *ast.CallExpr) []int {
	if m, ok := deviceCall(info, call); ok {
		switch m {
		case "Store":
			return []int{1}
		case "CAS":
			return []int{2}
		}
		return nil
	}
	if name, ok := pkgFunc(info, call); ok {
		switch name {
		case "PCAS", "PCASFlush":
			return []int{3}
		case "Persist":
			return []int{2}
		}
	}
	return nil
}

// checkPersistOrd applies the three rules to one function body.
func checkPersistOrd(pass *analysis.Pass, sup *suppressions, t *taint,
	isFlusher func(*types.Func) bool, d *ast.FuncDecl, traversal bool) {
	info := pass.TypesInfo

	report := func(pos token.Pos, format string, args ...interface{}) {
		if ok, note := sup.allowed(pos, "persistord"); !ok {
			pass.Reportf(pos, format+"%s", append(args, note)...)
		}
	}

	type obligation struct {
		pos token.Pos
		via *types.Func
	}
	var obligations []obligation
	var flushes, fences []token.Pos

	ast.Inspect(d.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isReadTraverse(info, call) && !traversal {
			// Rule 1: elision is only legal on declared descend paths.
			report(call.Pos(),
				"ReadTraverse outside a %s function: the elided flush-before-read may return unpersisted state; "+
					"use (*core.Handle).Read, or annotate the enclosing traversal and keep its reads navigation-only (DESIGN.md §6.2)",
				traversalAnnotation)
		}
		if m, ok := deviceCall(info, call); ok {
			switch m {
			case "Flush", "FlushAll":
				flushes = append(flushes, call.Pos())
			case "Fence":
				fences = append(fences, call.Pos())
			}
		} else if isFlusher(calleeFunc(info, call)) {
			flushes = append(flushes, call.Pos())
		} else if isHandoff(info, call) {
			// A handoff flushes the block, then fences.
			flushes = append(flushes, call.Pos())
			fences = append(fences, call.End())
		}
		for _, argIdx := range persistSinkArgs(info, call) {
			if argIdx >= len(call.Args) {
				continue
			}
			tainted, via := t.expr(call.Args[argIdx])
			if !tainted {
				continue
			}
			if traversal {
				// Rule 2: traversal reads navigate, they never publish.
				report(call.Args[argIdx].Pos(),
					"store of a value observed through an elided traversal read inside a %s function: "+
						"traversal reads are navigation-only — re-read through (*core.Handle).Read before publishing (DESIGN.md §6.2)",
					traversalAnnotation)
				continue
			}
			if via == nil {
				continue // in-traversal direct reads are rule 1/2 territory
			}
			obligations = append(obligations, obligation{call.Args[argIdx].Pos(), via})
		}
		return true
	})

	// Rule 3: each raw store of a fact-tainted value must be followed, in
	// source order within this function, by a flush and then a fence — the
	// staged-initialisation pattern, or a handoff — that makes the
	// destination durable before any commit can reference it.
	for _, ob := range obligations {
		cleared := false
		for _, f := range flushes {
			if f <= ob.pos {
				continue
			}
			for _, e := range fences {
				if e > f {
					cleared = true
					break
				}
			}
			if cleared {
				break
			}
		}
		if !cleared {
			report(ob.pos,
				"publishing the possibly-unpersisted value returned by %s (fact PersistState) with no later Flush+Fence in this function: "+
					"a crash could expose durable state that references a value never made durable — flush the destination line and fence, "+
					"or install through a descriptor (DESIGN.md §6.2)",
				ob.via.FullName())
		}
	}
}
