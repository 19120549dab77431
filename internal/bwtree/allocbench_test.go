package bwtree

import (
	"testing"

	"pmwcas/internal/core"
	"pmwcas/internal/index"
	"pmwcas/internal/nvram"
)

// pointOps preloads a persistent tree (height 4) and returns its device
// with the steady-state Update and Get: what BenchmarkPointOps times,
// TestPointOpsAllocBudget counts allocations of and
// TestPointOpsDeviceOpBudget counts device ops of.
func pointOps(tb testing.TB) (dev *nvram.Device, update, get func(i int)) {
	e := newTreeEnv(tb, core.Persistent, SMOPMwCAS, nil)
	h := e.tree.NewHandle()
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

// putOps preloads a persistent tree with owned blocks and returns its
// steady-state PutOwned overwrite: each call reserves a fresh block and
// puts it, and the PMwCAS that installs its delta frees the block it
// displaces.
func putOps(tb testing.TB) func(i int) {
	e := newTreeEnv(tb, core.Persistent, SMOPMwCAS, nil)
	h := e.tree.NewHandle()
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
// contract on the Bw-tree's annotated fast paths (the static half is
// pmwcaslint's hotpath analyzer): steady-state Update+Get against a
// preloaded tree, and steady-state owned overwrites (PutOwned). Writes
// post deltas and periodically consolidate, so the budget of 1 alloc/op
// is the amortized SMO cost the §6.3 waivers price in (the epoch-sweep
// consolidation finalizer's chain-block list), not a fast-path
// allocation.
func TestPointOpsAllocBudget(t *testing.T) {
	if nvram.SanitizerEnabled {
		t.Skip("psan's shadow state allocates on every device op")
	}
	_, update, get := pointOps(t)
	i := 0
	if got := testing.AllocsPerRun(20000, func() { update(i); get(i); i++ }); got > 1 {
		t.Fatalf("Update+Get = %v allocs/op, budget 1", got)
	}
	put := putOps(t)
	if got := testing.AllocsPerRun(20000, func() { put(i); i++ }); got > 1 {
		t.Fatalf("PutOwned = %v allocs/op, budget 1", got)
	}
}

// TestPointOpsDeviceOpBudget is the count twin of TestPointOpsAllocBudget:
// device ops (loads + stores + CASes + flushes + fences) per steady-state
// Get and Update on the same tree. Point ops search each page of the
// descent in place, so a Get costs its chain walks plus a binary search
// per level; materialising every page on the way down cost 101.5 per Get
// and 260.7 per Update. With the PMwCAS owner reading its DRAM copy of
// the descriptor entries they were 47.4 and 169.1; since a split leaves
// both halves as fresh bases (no split delta over the old chain) they
// were 38.9 and 160.9. While Reserve zeroed a whole block and its handoff
// wrote every line of the block back, a consolidated page paid for its
// 1 KiB or 4 KiB block rather than its entries, and an Update cost 141.1;
// it was 115.9 once both covered only the reservation's extent. While a
// split posted an index delta to its parent, so a descent walked inner
// chains, and a search loaded every base's low and side words, a Get
// cost 38.9 and an Update 113.3.
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
	// One untimed round of updates first, so every leaf is in its
	// steady consolidate-every-few-updates cycle.
	perOp(update)
	g, u := perOp(get), perOp(update)
	t.Logf("device ops: Get %.1f, Update %.1f", g, u)
	if g > 30 {
		t.Errorf("Get = %.1f device ops, budget 30", g)
	}
	if u > 105 {
		t.Errorf("Update = %.1f device ops, budget 105", u)
	}
}
