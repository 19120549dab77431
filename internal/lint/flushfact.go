package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

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

func (f *ReturnsUnflushed) indices() *[]int { return &f.Results }

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
	facts := newFactTable[ReturnsUnflushed](pass)
	// The source is a raw Device.Load of a managed word.
	rule := taintRule{
		info: pass.TypesInfo,
		source: func(call *ast.CallExpr) bool {
			m, ok := deviceCall(pass.TypesInfo, call)
			if !ok || m != "Load" || len(call.Args) == 0 {
				return false
			}
			_, shares := sharesFingerprint(pass.TypesInfo, call.Args[0], managed)
			return shares
		},
		results: indicesOf(facts),
	}

	// Phase 1 — export: functions whose results carry a raw-loaded word.
	decls := funcDecls(pass, false)
	growIndices(facts, decls, func(d funcDecl) map[int]bool { return rule.track(d.decl.Body).returns(d) })

	// Phase 2 — check: inside every function (test files excepted:
	// crash-recovery tests inspect raw words on purpose), flag unmasked
	// use of raw-loaded values. Same-body loads count only in files that
	// take part in the protocol; volatile baselines never import core.
	for _, d := range decls {
		checkUnflushedUses(pass, sup, rule.track(d.decl.Body), d.decl.Body, refersToCore(fileAt(pass, d.decl.Pos())))
	}
	return nil, nil
}

// checkUnflushedUses reports unmasked comparisons, switches, and
// re-stores of raw-loaded values: values that flow out of
// ReturnsUnflushed calls and, when localLoads, loads made in body itself.
func checkUnflushedUses(pass *analysis.Pass, sup *suppressions, t *taint, body ast.Node, localLoads bool) {
	info := pass.TypesInfo

	// rawWord reports whether e carries a raw-loaded word, and through
	// which callee's fact (nil for a load in this body).
	rawWord := func(e ast.Expr) (*types.Func, bool) {
		tainted, via := t.expr(e)
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
				return []int{1, 2}
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
