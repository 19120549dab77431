package lint

import (
	"go/ast"
	"slices"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// StaleAllow audits the package's //lint:allow suppressions after every
// checker has run. A suppression that absorbed no diagnostic is dead
// weight: either the underlying violation was fixed (delete the comment)
// or the comment never matched anything (a typo in the analyzer name, a
// comment that drifted away from its line). Dead suppressions are worse
// than none — they read as documented, reviewed exceptions while guarding
// nothing — so the auditor fails the merge gate on them.
//
// It also reports suppressions whose analyzer name is not part of the
// suite, and suppressions with no reason (which the checkers already
// ignore; here they become a hard failure instead of a footnote).
//
// Run alone via `pmwcaslint -audit ./...`, which enables only this
// analyzer: the checkers still execute (they are prerequisites, which is
// how use is tracked) but only audit findings are printed.
var StaleAllow = &analysis.Analyzer{
	Name: "staleallow",
	Doc: "report //lint:allow suppressions that no longer suppress anything, " +
		"name an unknown analyzer, or carry no reason",
	Requires: append([]*analysis.Analyzer{Suppress}, checkers...),
	Run:      runStaleAllow,
}

// checkerNames lists the analyzer names a suppression may legitimately
// grant. staleallow itself is deliberately absent: an audit finding is
// fixed by deleting the dead comment, not by suppressing the auditor.
func checkerNames() []string {
	names := make([]string, len(checkers))
	for i, a := range checkers {
		names[i] = a.Name
	}
	return names
}

// annotationNames are the //pmwcas: marker annotations the suite
// understands. Unlike suppressions they grant nothing by themselves —
// requires-guard moves a proof obligation to callers, hotpath adds one —
// but a typoed or floating annotation silently grants the wrong thing, so
// the audit holds them to the same standard: known name, function doc
// comment, stated reason.
var annotationNames = map[string]bool{
	"requires-guard": true,
	"hotpath":        true,
}

func runStaleAllow(pass *analysis.Pass) (interface{}, error) {
	sup := suppressionsOf(pass)

	// go vet analyzes a package twice when it has test files: once without
	// them and once with. Suppressions are audited only in the unit that
	// contains their file, and non-test suppressions only in the base unit
	// — the richer test unit can only add diagnostics (test files extend
	// the managed-word set), never remove them, so the base unit is the
	// authoritative judge of whether a non-test suppression still earns
	// its keep.
	testUnit := false
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			testUnit = true
			break
		}
	}

	known := checkerNames()
	sup.mu.Lock()
	defer sup.mu.Unlock()
	for _, e := range sup.entries {
		inTestFile := strings.HasSuffix(e.filename, "_test.go")
		if inTestFile != testUnit {
			continue
		}
		kind := "lint:allow"
		if e.file {
			kind = "lint:file-allow"
		}
		switch {
		case !e.reason:
			pass.Reportf(e.pos,
				"%s %s has no reason and is ignored by the checkers; state why the violation is deliberate after “—”, or delete the comment",
				kind, e.name)
		case !slices.Contains(known, e.name):
			pass.Reportf(e.pos, "%s names unknown analyzer %q (known: %s)",
				kind, e.name, strings.Join(known, ", "))
		case !e.used:
			pass.Reportf(e.pos,
				"stale suppression: %s %s no longer suppresses any diagnostic here — the violation it excused is gone; delete it",
				kind, e.name)
		}
	}
	auditAnnotations(pass, testUnit)
	return nil, nil
}

// auditAnnotations applies the suppression standard to //pmwcas: marker
// annotations: the name must be one the suite acts on (a typo like
// //pmwcas:requires-guards would silently disable the guard-obligation
// transfer), the annotation must sit in a function's doc comment (a
// floating one attaches to nothing), and it must state its reason after a
// separator, like every other reviewed exception in this codebase.
func auditAnnotations(pass *analysis.Pass, testUnit bool) {
	const prefix = "//pmwcas:"
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) != testUnit {
			continue
		}
		inDoc := make(map[*ast.Comment]bool)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
				for _, c := range fd.Doc.List {
					inDoc[c] = true
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, prefix) {
					continue // prose mentions start "// ", not "//pmwcas:"
				}
				rest := strings.TrimPrefix(text, prefix)
				name := rest
				reason := ""
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					name = rest[:i]
					reason = strings.TrimSpace(rest[i:])
				}
				for _, sep := range []string{"—", "--", ":"} {
					reason = strings.TrimSpace(strings.TrimPrefix(reason, sep))
				}
				switch {
				case !annotationNames[name]:
					pass.Reportf(c.Pos(),
						"//pmwcas: annotation names unknown contract %q (known: requires-guard, hotpath); a typo here silently disables enforcement",
						name)
				case !inDoc[c]:
					pass.Reportf(c.Pos(),
						"//pmwcas:%s is not part of a function's doc comment and attaches to nothing; move it onto the function it governs",
						name)
				case reason == "":
					pass.Reportf(c.Pos(),
						"//pmwcas:%s has no reason; state why the contract holds after “—”, like a suppression",
						name)
				}
			}
		}
	}
}
