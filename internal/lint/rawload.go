package lint

import (
	"go/ast"

	"golang.org/x/tools/go/analysis"
)

// RawLoad reports direct Device.Load / Device.CAS calls on PMwCAS-managed
// words outside the packages that implement the protocol. See the package
// doc for the managed-word approximation.
var RawLoad = &analysis.Analyzer{
	Name: "rawload",
	Doc: "report raw Device.Load/Device.CAS on PMwCAS-managed words (paper §3: reads must flush-before-read " +
		"via core.PCASRead or Handle.Read; swaps must go through core.PCAS or a descriptor)",
	Requires: []*analysis.Analyzer{Suppress},
	Run:      runRawLoad,
}

func runRawLoad(pass *analysis.Pass) (interface{}, error) {
	if pkgExempt(pass.Pkg.Path()) {
		return nil, nil
	}
	managed := managedSet(pass)
	if len(managed) == 0 {
		return nil, nil // package never uses the protocol
	}
	sup := suppressionsOf(pass)

	for _, file := range pass.Files {
		if !refersToCore(file) || isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			method, ok := deviceCall(pass.TypesInfo, call)
			if !ok || (method != "Load" && method != "CAS") || len(call.Args) == 0 {
				return true
			}
			name, shares := sharesFingerprint(pass.TypesInfo, call.Args[0], managed)
			if !shares {
				return true
			}
			if ok, note := sup.allowed(call.Pos(), "rawload"); !ok {
				reportRawLoad(pass, call, method, name, note)
			}
			return true
		})
	}
	return nil, nil
}

func reportRawLoad(pass *analysis.Pass, call *ast.CallExpr, method, fp, note string) {
	var fix string
	switch method {
	case "Load":
		fix = "read it with core.PCASRead or (*core.Handle).Read so a dirty word is flushed before use"
	case "CAS":
		fix = "swap it with core.PCAS/PCASFlush or a PMwCAS descriptor so the dirty-bit protocol holds"
	}
	pass.Reportf(call.Pos(),
		"raw Device.%s on a PMwCAS-managed word (offset names %q, a protocol target in this package); %s (paper §3)%s",
		method, fp, fix, note)
}
