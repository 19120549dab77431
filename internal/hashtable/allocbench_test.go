package hashtable

import (
	"testing"

	"pmwcas/internal/core"
	"pmwcas/internal/index"
	"pmwcas/internal/nvram"
)

// pointOps preloads a persistent table and returns its device with the
// steady-state Update and Get: what BenchmarkPointOps times,
// TestPointOpsAllocBudget counts allocations of and
// TestPointOpsDeviceOpBudget counts device ops of.
func pointOps(tb testing.TB) (dev *nvram.Device, update, get func(i int)) {
	e := newHTEnv(tb, core.Persistent, 8)
	h := e.tab.NewHandle()
	const keys = 512
	for k := uint64(1); k <= keys; k++ {
		if err := h.Insert(k, k); err != nil {
			tb.Fatalf("preload %d: %v", k, err)
		}
	}
	update = func(i int) {
		k := uint64(i%keys) + 1
		if err := h.Update(k, uint64(i%1024)+1); err != nil {
			tb.Fatalf("update %d: %v", k, err)
		}
	}
	get = func(i int) {
		k := uint64(i%keys) + 1
		if _, err := h.Get(k); err != nil {
			tb.Fatalf("get %d: %v", k, err)
		}
	}
	return e.dev, update, get
}

// putOps preloads a persistent table with owned blocks and returns its
// steady-state PutOwned overwrite: each call reserves a fresh block and
// puts it, and the PMwCAS frees the block it displaces.
func putOps(tb testing.TB) func(i int) {
	e := newHTEnv(tb, core.Persistent, 8)
	h := e.tab.NewHandle()
	ah := e.alloc.NewHandle()
	const keys = 512
	put := func(i int) {
		for {
			b, err := ah.Reserve(64)
			if err != nil {
				tb.Fatalf("reserve: %v", err)
			}
			if err := h.PutOwned(uint64(i%keys)+1, b); err != index.ErrRaced {
				if err != nil {
					tb.Fatalf("put %d: %v", i, err)
				}
				return
			}
		}
	}
	for i := 0; i < keys; i++ {
		put(i)
	}
	return put
}

func BenchmarkPointOps(b *testing.B) {
	_, update, get := pointOps(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		update(i)
		get(i)
	}
}

// TestPointOpsAllocBudget is the dynamic half of the //pmwcas:hotpath
// contract on the hash table's annotated fast paths (the static half is
// pmwcaslint's hotpath analyzer): steady-state Update+Get against a
// preloaded table, past the split churn of loading, stays at 0
// allocs/op, and so does a steady-state owned overwrite (PutOwned).
func TestPointOpsAllocBudget(t *testing.T) {
	if nvram.SanitizerEnabled {
		t.Skip("psan's shadow state allocates on every device op")
	}
	_, update, get := pointOps(t)
	i := 0
	if got := testing.AllocsPerRun(20000, func() { update(i); get(i); i++ }); got > 0 {
		t.Fatalf("Update+Get = %v allocs/op, budget 0", got)
	}
	put := putOps(t)
	if got := testing.AllocsPerRun(20000, func() { put(i); i++ }); got > 0 {
		t.Fatalf("PutOwned = %v allocs/op, budget 0", got)
	}
}

// TestPointOpsDeviceOpBudget is the count twin of TestPointOpsAllocBudget:
// device ops (loads + stores + CASes + flushes + fences) per steady-state
// Get and Update on the same table. An Update is a PMwCAS on the value
// slot, so much of its bill is the descriptor's: while the PMwCAS owner
// re-read its own entries off the device it cost 72.0 per Update (13.7
// per Get), and the budget keeps the owner on its DRAM copy. While a
// split sealed its bucket, a Get whose directory hint still named the
// sealed bucket paid a hop to its child: 13.7 per Get, 58.0 per Update;
// a split that keeps its bucket leaves half its class on the hint. While
// the directory lived in NVRAM, every lookup loaded the depth word and
// its entry, and the fixed 16-entry test directory left deeper buckets
// a chain hop past their hint: 13.4 per Get, 57.8 per Update.
func TestPointOpsDeviceOpBudget(t *testing.T) {
	dev, update, get := pointOps(t)
	ops := func(s nvram.Stats) uint64 { return s.Loads + s.Stores + s.CASes + s.Flushes + s.Fences }
	const n = 4096
	perOp := func(op func(int)) float64 {
		before := dev.Stats()
		for i := 0; i < n; i++ {
			op(i)
		}
		return float64(ops(dev.Stats())-ops(before)) / n
	}
	// One untimed round of updates first, so every retired descriptor
	// of the preload has been finalized.
	perOp(update)
	g, u := perOp(get), perOp(update)
	t.Logf("device ops: Get %.1f, Update %.1f", g, u)
	if g > 7.0 {
		t.Errorf("Get = %.1f device ops, budget 7.0", g)
	}
	if u > 51.5 {
		t.Errorf("Update = %.1f device ops, budget 51.5", u)
	}
}
