package lint_test

import (
	"testing"

	"pmwcas/internal/lint"
	"pmwcas/internal/lint/linttest"
)

func TestRawLoad(t *testing.T) { linttest.Run(t, linttest.TestData(t), lint.RawLoad, "rawload") }

// An offset that names several managed fingerprints is reported under
// the least of them; picking one in map order made two runs over the
// same tree print different messages.
func TestRawLoadNameStable(t *testing.T) {
	for i := 0; i < 20; i++ {
		linttest.Run(t, linttest.TestData(t), lint.RawLoad, "rawload/twonames")
	}
}
func TestStoreFence(t *testing.T) {
	linttest.Run(t, linttest.TestData(t), lint.StoreFence, "storefence")
}

// The interprocedural analyzers run over fixture package chains in
// dependency order: facts exported while analyzing a/ are imported while
// analyzing b/ and c/, exactly as `go vet` threads .vetx files. Each
// chain includes a violation that crosses two package hops.
func TestFlushFact(t *testing.T) {
	linttest.RunDirs(t, linttest.TestData(t), lint.FlushFact, "flushfact/a", "flushfact/b", "flushfact/c")
}
func TestGuardFact(t *testing.T) {
	linttest.RunDirs(t, linttest.TestData(t), lint.GuardFact, "guardfact/a", "guardfact/b", "guardfact/c")
}
func TestDescFlow(t *testing.T) {
	linttest.RunDirs(t, linttest.TestData(t), lint.DescFlow, "descflow/a", "descflow/b", "descflow/c")
}

// The samebody/ fixtures hold the violations a function commits on its
// own: the flag-masked read, the single-shot descriptor and the paired
// guard, each now reported by its contract's interprocedural analyzer.
func TestFlagMask(t *testing.T) {
	linttest.Run(t, linttest.TestData(t), lint.FlushFact, "flushfact/samebody")
}
func TestGuardPair(t *testing.T) {
	linttest.Run(t, linttest.TestData(t), lint.GuardFact, "guardfact/samebody")
}

// descflow/pmwcas/internal/core ends in core's import path, so it runs
// under core's exemption: no facts, direct kills still reported.
func TestDescReuse(t *testing.T) {
	linttest.RunDirs(t, linttest.TestData(t), lint.DescFlow,
		"descflow/samebody", "descflow/pmwcas/internal/core")
}
func TestHotPath(t *testing.T) {
	linttest.RunDirs(t, linttest.TestData(t), lint.HotPath, "hotpath/a", "hotpath/b", "hotpath/c")
}
func TestNonBlock(t *testing.T) {
	linttest.RunDirs(t, linttest.TestData(t), lint.NonBlock, "nonblock/a", "nonblock/b", "nonblock/c")
}
func TestStaleAllow(t *testing.T) {
	linttest.Run(t, linttest.TestData(t), lint.StaleAllow, "staleallow")
}
