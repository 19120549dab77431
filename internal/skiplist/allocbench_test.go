package skiplist

import (
	"testing"

	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

// pointOps preloads a persistent list and returns its steady-state
// Update+Get pair: what BenchmarkPointOps times and what
// TestPointOpsAllocBudget counts allocations of.
func pointOps(tb testing.TB) func(i int) {
	e := newListEnv(tb, core.Persistent)
	h := e.list.NewHandle(1)
	const keys = 512
	for k := uint64(1); k <= keys; k++ {
		if err := h.Insert(k, k); err != nil {
			tb.Fatalf("preload %d: %v", k, err)
		}
	}
	return func(i int) {
		k := uint64(i%keys) + 1
		if err := h.Update(k, uint64(i%1024)+1); err != nil {
			tb.Fatalf("update %d: %v", k, err)
		}
		if _, err := h.Get(k); err != nil {
			tb.Fatalf("get %d: %v", k, err)
		}
	}
}

func BenchmarkPointOps(b *testing.B) {
	op := pointOps(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// TestPointOpsAllocBudget is the dynamic half of the //pmwcas:hotpath
// contract on the skip list's annotated fast paths (the static half is
// pmwcaslint's hotpath analyzer): steady-state Update+Get against a
// preloaded list, with no structural churn, stays at 0 allocs/op.
func TestPointOpsAllocBudget(t *testing.T) {
	if nvram.SanitizerEnabled {
		t.Skip("psan's shadow state allocates on every device op")
	}
	op := pointOps(t)
	i := 0
	if got := testing.AllocsPerRun(20000, func() { op(i); i++ }); got > 0 {
		t.Fatalf("Update+Get = %v allocs/op, budget 0", got)
	}
}
