package hashtable

import (
	"sync"
	"testing"

	"pmwcas/internal/core"
)

// TestReclaimOnSplit pins the split→reclaim pipeline: growing a table
// through many splits must free sealed interior buckets as it goes, and
// the durable image must account for every one — a fresh table's sealed
// count is exactly splits minus reclaims, because each split seals one
// bucket and each reclaim frees one.
func TestReclaimOnSplit(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 2)
	h := e.tab.NewHandle()
	const n = 300
	for k := uint64(1); k <= n; k++ {
		if err := h.Insert(k, k*3); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	st := e.tab.Stats()
	if st.Splits == 0 || st.Doublings == 0 {
		t.Fatalf("vacuous growth: %+v", st)
	}
	if st.Reclaims == 0 {
		t.Fatalf("no split-time reclaims across %d splits", st.Splits)
	}
	e.reopen(t)
	_, entries, cs, err := Check(e.dev, e.roots, e.dir)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(entries) != n {
		t.Fatalf("recovered %d keys, want %d", len(entries), n)
	}
	if want := int(st.Splits - st.Reclaims); cs.Sealed != want {
		t.Fatalf("durable sealed count %d, want splits-reclaims = %d", cs.Sealed, want)
	}
	if cs.SeveredEdges == 0 {
		t.Fatal("reclaims left no tombstoned edges — checker is not seeing them")
	}
}

// TestReclaimSweep drives the explicit maintenance sweep: after growth,
// ReclaimSealed frees interior buckets the split-time attempts skipped,
// the logical contents are untouched, and the swept image still checks
// clean across a restart.
func TestReclaimSweep(t *testing.T) {
	// 1024-slot directory: the global depth can track the tree's real
	// depth, so most sealed buckets are below it and thus reclaimable.
	e := newHTEnvDir(t, core.Persistent, 2, 1024)
	h := e.tab.NewHandle()
	const n = 300
	for k := uint64(1); k <= n; k++ {
		if err := h.Insert(k, k+7); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	before := e.tab.Stats()
	sealedBefore := int(before.Splits - before.Reclaims)
	freed := 0
	for {
		f := h.ReclaimSealed(0)
		freed += f
		if f == 0 {
			break
		}
	}
	if freed == 0 && sealedBefore > 0 {
		// Not every sealed bucket is reclaimable (those at the global
		// depth have no deeper entry to scrub to), but a 300-key growth
		// leaves plenty that are.
		t.Fatalf("sweep freed nothing with %d sealed buckets standing", sealedBefore)
	}
	if got := int(e.tab.Stats().Reclaims - before.Reclaims); got != freed {
		t.Fatalf("sweep reported %d frees, counter says %d", freed, got)
	}
	for k := uint64(1); k <= n; k++ {
		if v, err := h.Get(k); err != nil || v != k+7 {
			t.Fatalf("after sweep, Get(%d) = (%d, %v)", k, v, err)
		}
	}
	if got := h.Len(); got != n {
		t.Fatalf("after sweep, Len = %d, want %d", got, n)
	}
	e.reopen(t)
	got := e.check(t)
	if len(got) != n {
		t.Fatalf("recovered %d keys, want %d", len(got), n)
	}
	after := e.tab.Stats()
	_ = after
	_, _, cs, err := Check(e.dev, e.roots, e.dir)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if cs.Sealed != sealedBefore-freed {
		t.Fatalf("durable sealed count %d, want %d-%d", cs.Sealed, sealedBefore, freed)
	}
}

// TestCrashSweepReclaim is the pinned crash-sweep regression across the
// reclaim PMwCAS: a crash at every device operation of a ReclaimSealed
// sweep — scrub CASes, the plant, the 3-word descriptor, the policy free
// — must recover to exactly the pre-sweep logical contents with all
// structural invariants intact (reclamation changes no logical state, so
// the oracle is the full key set, no pending entry).
func TestCrashSweepReclaim(t *testing.T) {
	const keys = 60
	for k := 1; ; k += sweepStride(k) {
		e := newHTEnvDir(t, core.Persistent, 2, 256)
		h := e.tab.NewHandle()
		for key := uint64(1); key <= keys; key++ {
			if err := h.Insert(key, key*11); err != nil {
				t.Fatalf("Insert(%d): %v", key, err)
			}
		}

		freed := 0
		completed := runUntilCrash(e.dev, k, func() {
			freed = h.ReclaimSealed(0)
		})

		e.reopen(t)
		got := e.check(t)
		if len(got) != keys {
			t.Fatalf("crash at %d: recovered %d keys, want %d", k, len(got), keys)
		}
		for key := uint64(1); key <= keys; key++ {
			if got[key] != key*11 {
				t.Fatalf("crash at %d: key %d = %d, want %d", k, key, got[key], key*11)
			}
		}
		// The recovered table remains fully usable, including further
		// reclamation.
		h2 := e.tab.NewHandle()
		if err := upsert(h2, keys+1, 1); err != nil {
			t.Fatalf("crash at %d: post-recovery Upsert: %v", k, err)
		}
		h2.ReclaimSealed(1)
		if v, err := h2.Get(keys + 1); err != nil || v != 1 {
			t.Fatalf("crash at %d: post-recovery Get = (%d, %v)", k, v, err)
		}

		if completed {
			if freed == 0 {
				t.Fatal("sweep is vacuous: the uncrashed run reclaimed nothing")
			}
			break
		}
	}
}

// TestReclaimConcurrent races the maintenance sweep against mutators:
// point operations, splits, doublings, and reclaims interleave freely
// (run under -race in CI) and the surviving image checks clean.
func TestReclaimConcurrent(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 2)
	const workers = 4
	ops := 1500
	if testing.Short() {
		ops = 300
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := e.tab.NewHandle()
			for i := 0; i < ops; i++ {
				k := uint64((w*ops+i)%200) + 1
				switch i % 3 {
				case 0:
					upsert(h, k, uint64(i)+1)
				case 1:
					h.Get(k)
				case 2:
					h.Delete(k)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := e.tab.NewHandle()
		for i := 0; i < 40; i++ {
			h.ReclaimSealed(0)
		}
	}()
	wg.Wait()
	h := e.tab.NewHandle()
	n := 0
	h.Range(func(k, v uint64) bool { n++; return true })
	if got := h.Len(); got != n {
		t.Fatalf("Len = %d, Range saw %d", got, n)
	}
	e.reopen(t)
	e.check(t)
}
