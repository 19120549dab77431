// Package lint implements pmwcaslint: a suite of go/analysis analyzers
// that mechanically enforce the invariants the PMwCAS paper states in
// prose and this repository previously enforced only by comment and code
// review.
//
// The analyzers and the paper rules they encode:
//
//   - rawload (§3, §4.2): outside internal/core and internal/nvram, a
//     PMwCAS-managed word must not be read or swapped with a direct
//     Device.Load / CAS. Reads must go through core.PCASRead
//     or (*core.Handle).Read, which flush a dirty word before acting on
//     it; swaps must go through core.PCAS or a descriptor.
//   - storefence (§3): a Device.Store to persistent memory that is never
//     followed by a Flush (and Fence) on any path publishes volatile
//     state; a crash silently discards it. A store that fills a reserved
//     block is written back by the Activate / ReserveEntry handoff that
//     takes the block (a ReserveEntry's write-back is fenced by the
//     descriptor's Execute).
//
// The remaining checkers follow their contract across function and
// package boundaries using go/analysis Facts (serialized per-package
// summaries the build system threads from a dependency's analysis run to
// its importers):
//
//   - flushfact (§3, §4.2): a raw-loaded protocol word carries reserved
//     bits (DirtyFlag, MwCASFlag, RDCSSFlag); comparing it against a
//     plain value with ==, != or switch without masking is a latent
//     recovery bug. The load and the comparison may share a function
//     body, or the load may sit in a callee: a function whose return
//     value is such a word exports a ReturnsUnflushed fact, and any
//     caller — in this package or an importing one — that compares,
//     switches on, or re-stores that value unmasked is flagged.
//   - guardfact (§5.1): every Guard.Enter must be matched by Guard.Exit
//     on all non-panicking paths out of the function (in practice: defer
//     g.Exit()), and a Guard must never escape to another goroutine —
//     guards are goroutine-affine. Within that pairing, every
//     epoch-protected dereference — a protocol read of a managed word,
//     directly or through a reader helper whose ReadsWord fact says the
//     offset flows in from a parameter — must be dominated by an active
//     Guard.Enter: a forward must-dataflow over the go/cfg control-flow
//     graph proves a guard is held on every path to the read, with no
//     intervening Exit. A helper that runs under its caller's guard
//     declares it with //pmwcas:requires-guard, which silences its
//     in-body diagnostics, exports a RequiresGuard fact, and moves the
//     dominance obligation to every call site — in this package or any
//     importing one, hop by hop.
//   - descflow (§4.1): a descriptor is single-shot; after Execute or
//     Discard it belongs to the pool's recycling machinery and must not
//     be touched again. Functions that Execute or Discard a descriptor
//     parameter export a KillsDescriptor fact (and ReturnsDeadDescriptor
//     when they return an already-retired descriptor), so a caller that
//     keeps using the handle is flagged whether the kill happened in its
//     own body or in a callee.
//   - hotpath (DESIGN.md §6.3): every function reachable from a
//     //pmwcas:hotpath root must be transitively free of heap
//     allocation. Proof is per-function on the typed AST (make/new,
//     escaping composites, capturing closures, growing append, string
//     building, interface boxing, variadic slices, goroutine spawns)
//     and crosses package boundaries as an AllocFree fact; calls into
//     unproven functions are default-deny findings. Two amortized
//     idioms — self-append and cap()-guarded make — pass statically and
//     are pinned dynamically by the CI allocation-budget gate.
//   - nonblock (DESIGN.md §6.3): inside epoch-guarded regions (the
//     may-held state of guardfact's guard dataflow, the dual of its
//     must-held dominance state) and throughout //pmwcas:hotpath /
//     //pmwcas:requires-guard bodies, no operation may park the
//     goroutine: channel ops, select, sync locks and waits, time.Sleep,
//     and OS calls are findings, propagated interprocedurally as
//     MayBlock facts. A reasoned suppression at the primitive (a
//     documented bounded critical section) stops the propagation at its
//     source.
//
// # One fact engine
//
// The five fact-carrying checkers share one engine (facts.go): one walk
// over the package's function declarations; one lookup that answers a
// fact for this package's functions from the fixpoint in progress and
// for other packages' from the facts they exported; one fixpoint for the
// facts that list parameter or result indices (ReturnsUnflushed,
// ReadsWord, KillsDescriptor, ReturnsDeadDescriptor); one call-graph
// fixpoint for the boolean ones (AllocFree is a greatest fixpoint,
// MayBlock a least); and one value-taint tracker, which flushfact feeds
// with its source (a raw Device.Load of a managed word) and its fact.
//
// # What "PMwCAS-managed" means to the analyzers
//
// The analyzers cannot know at compile time which arena words a PMwCAS
// will ever target, so they approximate: within a package, every offset
// expression passed to a protocol operation (core.PCAS, core.PCASRead,
// core.PCASFlush, core.Persist, Descriptor.AddWord / AddWordWithPolicy /
// ReserveEntry / RemoveWord, Handle.Read) contributes its named
// components — package-level constants, struct fields, and helper
// functions such as linkOff or mappingOff — to the package's managed
// fingerprint set. A raw Device access whose offset shares a fingerprint
// with that set is operating on protocol-managed words and is reported.
// Offsets built purely from unmanaged names (immutable node fields,
// record payloads, root words delivered by the allocator) are not
// flagged; reading those raw is the documented idiom of this codebase.
//
// Files that never reference pmwcas/internal/core are exempt from the
// raw-word checks (rawload, storefence, and flushfact's same-body loads):
// by construction they do not participate in the PMwCAS protocol (the
// volatile single-word-CAS baselines the paper measures against live in
// such files). Test files are likewise exempt from those checks —
// crash-recovery tests poke raw durable state on purpose — but not from
// guardfact's Enter/Exit pairing or descflow, whose contracts bind
// everywhere.
//
// # Suppressions
//
// A deliberate violation is silenced with a line comment on the flagged
// line or the line above:
//
//	//lint:allow rawload — inspecting raw words is this tool's purpose
//
// or for a whole file (volatile baselines, recovery tooling):
//
//	//lint:file-allow rawload — single-word-CAS baseline (§6.1), words carry no PMwCAS flags
//
// A suppression must name the analyzer and carry a reason after a
// separator (—, --, or :). A reasonless suppression is ignored and the
// underlying diagnostic is reported with a note, so the merge gate
// cannot be waved through silently.
//
// Suppressions are themselves audited: the staleallow analyzer (part of
// the default suite, also runnable alone via `pmwcaslint -audit`)
// reports any //lint:allow that no longer absorbs a diagnostic, names an
// unknown analyzer, or lacks a reason — so a fixed violation cannot
// leave its excuse behind as dead documentation.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Import paths of the packages whose types the analyzers key on.
const (
	nvramPath = "pmwcas/internal/nvram"
	corePath  = "pmwcas/internal/core"
	epochPath = "pmwcas/internal/epoch"
	allocPath = "pmwcas/internal/alloc"
)

// checkers are the analyzers a //lint:allow may name, in reporting order.
var checkers = []*analysis.Analyzer{
	RawLoad,
	StoreFence,
	FlushFact,
	GuardFact,
	DescFlow,
	HotPath,
	NonBlock,
}

// Analyzers is the full pmwcaslint suite: the checkers, then staleallow,
// which audits the suppressions and //pmwcas: annotations they consulted.
var Analyzers = append(append([]*analysis.Analyzer{}, checkers...), StaleAllow)

// pkgExempt reports whether path is a package that implements the
// protocol itself (core, nvram). The checkers whose contract binds the
// protocol's clients skip them.
func pkgExempt(path string) bool {
	return strings.HasSuffix(path, corePath) || strings.HasSuffix(path, nvramPath)
}

// fileAt returns the *ast.File in pass.Files containing pos.
func fileAt(pass *analysis.Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// isNamed reports whether t (after pointer indirection) is the named type
// path.name.
func isNamed(t types.Type, path, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// methodCall resolves call as a method invocation and returns the method
// name and receiver expression. ok is false for plain function calls.
func methodCall(info *types.Info, call *ast.CallExpr) (name string, recv ast.Expr, recvType types.Type, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", nil, nil, false
	}
	selection, isMethod := info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return "", nil, nil, false
	}
	return sel.Sel.Name, sel.X, selection.Recv(), true
}

// deviceCall reports whether call invokes the named method on
// *nvram.Device, returning the method name.
func deviceCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	name, _, recv, ok := methodCall(info, call)
	if !ok || !isNamed(recv, nvramPath, "Device") {
		return "", false
	}
	return name, true
}

// pkgFunc reports whether call invokes the package-level function
// path.name (e.g. core.PCASRead).
func pkgFunc(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != corePath {
		return "", false
	}
	if _, isMethod := info.Selections[sel]; isMethod {
		return "", false
	}
	return fn.Name(), true
}

// protocolOffsetArg returns the offset argument of a PMwCAS protocol
// operation, or nil if call is not one. These are the operations whose
// targets define the package's managed word set.
func protocolOffsetArg(info *types.Info, call *ast.CallExpr) ast.Expr {
	if name, recv, _, ok := methodCall(info, call); ok {
		switch {
		case isNamedRecv(info, recv, corePath, "Descriptor"):
			switch name {
			case "AddWord", "AddWordWithPolicy", "ReserveEntry", "RemoveWord":
				if len(call.Args) > 0 {
					return call.Args[0]
				}
			}
		case isNamedRecv(info, recv, corePath, "Handle"):
			if name == "Read" && len(call.Args) > 0 {
				return call.Args[0]
			}
		}
		return nil
	}
	if name, ok := pkgFunc(info, call); ok {
		switch name {
		case "PCAS", "PCASFlush", "PCASRead", "Persist":
			if len(call.Args) > 1 {
				return call.Args[1]
			}
		}
	}
	return nil
}

func isNamedRecv(info *types.Info, recv ast.Expr, path, name string) bool {
	t := info.TypeOf(recv)
	return t != nil && isNamed(t, path, name)
}

// isHandoff reports whether call hands a reserved block to its owner:
// (*alloc.Handle).Activate or (*core.Descriptor).ReserveEntry. Either
// writes back every line of the reservation, and a fence follows before the
// block's bit is set (Activate's own, or for ReserveEntry the
// descriptor's Execute), so the stores that filled the block are durable
// before it can be published (DESIGN.md §6.2).
func isHandoff(info *types.Info, call *ast.CallExpr) bool {
	name, recv, _, ok := methodCall(info, call)
	return ok && (name == "Activate" && isNamedRecv(info, recv, allocPath, "Handle") ||
		name == "ReserveEntry" && isNamedRecv(info, recv, corePath, "Descriptor"))
}

// calleeFunc resolves the function or method call invokes, or nil for
// conversions, calls of function-typed values, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// coreFlagNames are the names whose presence in an expression shows the
// author is reasoning about flag bits deliberately.
var coreFlagNames = map[string]bool{
	"DirtyFlag":   true,
	"MwCASFlag":   true,
	"RDCSSFlag":   true,
	"FlagsMask":   true,
	"AddressMask": true,
}

// containsFlagName reports whether e references one of core's flag-bit
// names — evidence of deliberate flag inspection rather than a payload
// comparison.
func containsFlagName(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		var id *ast.Ident
		switch x := n.(type) {
		case *ast.SelectorExpr:
			id = x.Sel
		case *ast.Ident:
			id = x
		default:
			return true
		}
		if !coreFlagNames[id.Name] {
			return true
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == corePath {
			found = true
			return false
		}
		return true
	})
	return found
}

// fingerprints collects the named components of an offset expression:
// struct fields and package-level constants/variables it selects, and
// the helper functions it calls. Locals and parameters are deliberately
// excluded — they name a value, not a layout location.
func fingerprints(info *types.Info, expr ast.Expr, out map[string]bool) {
	ast.Inspect(expr, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			// Skip the selector of a type conversion like nvram.Offset(v).
			if tv, ok := info.Types[x]; ok && tv.IsType() {
				return false
			}
			out[x.Sel.Name] = true
		case *ast.CallExpr:
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
				return true // conversion: fingerprint the operand only
			}
			switch f := x.Fun.(type) {
			case *ast.Ident:
				out[f.Name] = true
			case *ast.SelectorExpr:
				out[f.Sel.Name] = true
			}
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				return true
			}
			switch obj.(type) {
			case *types.Const, *types.Var:
				// Only package-level names describe layout; struct fields
				// arrive via SelectorExpr above.
				if obj.Parent() == obj.Pkg().Scope() {
					out[x.Name] = true
				}
			}
		}
		return true
	})
}

// managedSet computes the package's managed fingerprint set: the union
// of fingerprints of every offset passed to a protocol operation.
func managedSet(pass *analysis.Pass) map[string]bool {
	set := make(map[string]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if off := protocolOffsetArg(pass.TypesInfo, call); off != nil {
				fingerprints(pass.TypesInfo, off, set)
			}
			return true
		})
	}
	return set
}

// sharesFingerprint reports whether the offset expression names any
// managed layout component, and returns the least matching name for the
// diagnostic, so the message is the same on every run.
func sharesFingerprint(info *types.Info, expr ast.Expr, managed map[string]bool) (string, bool) {
	own := make(map[string]bool)
	fingerprints(info, expr, own)
	least, ok := "", false
	for name := range own {
		if managed[name] && (!ok || name < least) {
			least, ok = name, true
		}
	}
	return least, ok
}

// refersToCore reports whether the file imports pmwcas/internal/core.
// Files that never touch core are outside the PMwCAS persistence
// protocol (volatile baselines, raw substrate) and exempt from the
// protocol analyzers.
func refersToCore(f *ast.File) bool {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) == corePath {
			return true
		}
	}
	return false
}

// isTestFile reports whether pos lies in a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.File(pos).Name(), "_test.go")
}

// Suppression comments are parsed by the Suppress prerequisite analyzer
// (suppress.go) and audited by StaleAllow (staleallow.go).
