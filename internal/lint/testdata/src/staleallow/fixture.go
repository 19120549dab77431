// Fixtures for the staleallow auditor. The diagnostics land on the
// //lint:allow comment lines themselves, so the expectations here use
// the plus-one form: a diagnostic is expected one line below.
package staleallow

// want+1 `lint:file-allow storefence no longer suppresses any diagnostic here`
//lint:file-allow storefence — nothing in this file stores raw anymore

import (
	"sync"

	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

var (
	auditMu    sync.Mutex
	auditState uint64
)

type box struct {
	dev  *nvram.Device
	word nvram.Offset
}

func (b *box) publish(old, new uint64) bool {
	return core.PCAS(b.dev, b.word, old, new)
}

// liveSuppression really absorbs a flushfact diagnostic; the auditor
// must stay silent about it.
func (b *box) liveSuppression(expect uint64) bool {
	//lint:allow flushfact — recovery clears the flags before this path runs
	return b.dev.Load(b.word) == expect
}

// fixedLongAgo: the read below was converted to PCASRead, but the
// suppression outlived the violation.
func (b *box) fixedLongAgo(expect uint64) bool {
	// want+1 `stale suppression: lint:allow flushfact no longer suppresses any diagnostic here`
	//lint:allow flushfact — the comparison below used to be a raw load
	return core.PCASRead(b.dev, b.word) == expect
}

// retiredName: flushfact now reports what flagmask did; a suppression
// still naming the old analyzer guards nothing.
func (b *box) retiredName(expect uint64) bool {
	// want+1 `names unknown analyzer "flagmask" \(known: rawload, storefence, flushfact, guardfact, descflow, hotpath, nonblock\)`
	//lint:allow flagmask — the retired name
	return core.PCASRead(b.dev, b.word) == expect
}

// typoedName: the analyzer name never matched anything.
func (b *box) typoedName(expect uint64) bool {
	// want+1 `names unknown analyzer "rawlod"`
	//lint:allow rawlod — meant rawload, so this guards nothing
	v := b.dev.Load(b.word) &^ core.FlagsMask
	return v == expect
}

// reasonless: the checkers ignore a suppression with no reason; the
// auditor makes it a hard failure.
func (b *box) reasonless(expect uint64) bool {
	// want+1 `lint:allow rawload has no reason and is ignored by the checkers`
	//lint:allow rawload
	v := b.dev.Load(b.word) &^ core.FlagsMask
	return v == expect
}

// liveHotpathWaiver: the make below is a real allocation the hotpath
// checker consults the waiver about, so the auditor stays silent.
func liveHotpathWaiver(n int) []byte {
	//lint:allow hotpath — fixture: one-time buffer sized during recovery, not on the fast path
	return make([]byte, n)
}

// staleHotpathWaiver: nothing on the suppressed line allocates anymore;
// the waiver outlived the violation.
func staleHotpathWaiver(x uint64) uint64 {
	// want+1 `stale suppression: lint:allow hotpath no longer suppresses any diagnostic here`
	//lint:allow hotpath — the expression below used to build a string
	return x + 1
}

// liveNonblockWaiver: the lock is a blocking primitive nonblock consults
// the waiver about before deciding whether to export a MayBlock fact.
func liveNonblockWaiver() {
	//lint:allow nonblock — fixture: bounded critical section, no I/O under the lock
	auditMu.Lock()
	auditState++
	auditMu.Unlock()
}

// staleNonblockWaiver: the suppressed line no longer blocks.
func staleNonblockWaiver() {
	// want+1 `stale suppression: lint:allow nonblock no longer suppresses any diagnostic here`
	//lint:allow nonblock — the statement below used to take the lock
	auditState++
}

// goodAnnotation: known contract name, in a function's doc comment, with
// a stated reason — the audit stays silent.
//
//pmwcas:requires-guard — fixture body performs no protocol reads at all
func goodAnnotation() {}

// goodHotpathAnnotation: the hotpath contract is a name the audit
// recognizes; reasoned and attached, so the audit stays silent.
//
//pmwcas:hotpath — fixture: stand-in for an install path that must stay allocation-free
func goodHotpathAnnotation() {}

// typoedHotpathAnnotation: the plural would silently disable the
// allocation gate on this function.
//
// want+2 `//pmwcas: annotation names unknown contract "hotpaths"`
//
//pmwcas:hotpaths — plural typo, nothing enforces this
func typoedHotpathAnnotation() {}

// reasonlessHotpathAnnotation: hotpath annotations are reviewed contracts
// and must say why the function belongs on the fast path.
//
// want+2 `//pmwcas:hotpath has no reason`
//
//pmwcas:hotpath
func reasonlessHotpathAnnotation() {}

// typoedAnnotation: "requires-guards" is not a contract the suite acts
// on; the misspelling would silently disable enforcement. The known list
// is the whole suite: traversal is no longer one of them.
//
// want+2 `//pmwcas: annotation names unknown contract "requires-guards" \(known: requires-guard, hotpath\)`
//
//pmwcas:requires-guards — meant requires-guard, so nothing enforces this
func typoedAnnotation() {}

// reasonlessAnnotation: annotations are reviewed exceptions too and must
// say why the contract holds.
//
// want+2 `//pmwcas:requires-guard has no reason`
//
//pmwcas:requires-guard
func reasonlessAnnotation() {}

// want+1 `//pmwcas:requires-guard is not part of a function's doc comment`
//pmwcas:requires-guard — floats between declarations and attaches to nothing

var _ = goodAnnotation
