package bwtree

import (
	"errors"
	"testing"

	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

// sweepStride spaces the crash points: every device op in the default
// build, a sample under the race detector (the sweeps are single-driver,
// so the detector only slows the replay; the full sweep runs in the plain
// test job).
func sweepStride(k int) int {
	if raceEnabled {
		return 1 + (k % 13)
	}
	return 1
}

type crashPanic struct{ step int }

func runUntilCrash(dev *nvram.Device, k int, fn func()) (completed bool) {
	step := 0
	dev.SetHook(func(op string, off nvram.Offset) {
		step++
		if step == k {
			panic(crashPanic{step: k})
		}
	})
	defer dev.SetHook(nil)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashPanic); !ok {
				panic(r)
			}
			completed = false
		}
	}()
	fn()
	return true
}

// TestCrashSweepInsertWithSplit drives an insert that triggers a leaf
// split (and parent index posting) with a crash at every device step.
// After recovery the tree must contain either the pre-insert or the
// post-insert key set, keep all invariants, and keep serving writes.
func TestCrashSweepInsertWithSplit(t *testing.T) {
	// 19 preloaded keys: the consolidations during preload leave a
	// 16-entry base with a 3-delta chain, so the swept insert brings the
	// page to 20 entries > LeafCapacity at the consolidation threshold,
	// and maintenance splits it, chain and all, in one PMwCAS.
	const preload = 19

	for k := 1; ; k += sweepStride(k) {
		e := newTreeEnv(t, core.Persistent, SMOPMwCAS, nil)
		h := e.tree.NewHandle()
		for key := uint64(1); key <= preload; key++ {
			if err := h.Insert(key*10, key); err != nil {
				t.Fatalf("preload Insert: %v", err)
			}
		}
		drainTree(e)
		leavesBefore := e.tree.Stats(h).Leaves

		completed := runUntilCrash(e.dev, k, func() {
			if err := h.Insert(85, 850); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			drainTree(e)
		})

		e.reopen(t)
		h2 := e.tree.NewHandle()
		v, err := h2.Get(85)
		present := err == nil
		if present && v != 850 {
			t.Fatalf("crash at %d: torn value %d", k, v)
		}
		if !present && !errors.Is(err, ErrNotFound) {
			t.Fatalf("crash at %d: Get: %v", k, err)
		}
		for key := uint64(1); key <= preload; key++ {
			if got, err := h2.Get(key * 10); err != nil || got != key {
				t.Fatalf("crash at %d: preloaded key %d = (%d, %v)", k, key*10, got, err)
			}
		}
		e.checkStructure(t)
		// The tree keeps working (forces fresh descents, deltas, and
		// possibly the split the crash interrupted).
		for key := uint64(500); key < 540; key++ {
			if err := h2.Insert(key, key); err != nil {
				t.Fatalf("crash at %d: post-recovery Insert(%d): %v", k, key, err)
			}
		}
		e.checkStructure(t)

		if completed {
			if got := e.tree.Stats(h2).Leaves; got <= leavesBefore {
				t.Fatalf("swept insert never split: %d leaves before, %d after", leavesBefore, got)
			}
			t.Logf("insert+split sweep covered %d crash points", k-1)
			return
		}
	}
}

// TestCrashSweepMerge crashes at every step of a delete that triggers a
// page merge (two leaves and the parent in one PMwCAS).
func TestCrashSweepMerge(t *testing.T) {
	for k := 1; ; k += sweepStride(k) {
		e := newTreeEnv(t, core.Persistent, SMOPMwCAS, func(c *Config) { c.MergeBelow = 6 })
		h := e.tree.NewHandle()
		// Build two adjacent leaves (the 17th key splits the root leaf
		// into 1..8 and 9..17), then drain the right one to the merge
		// point: six keys left, 19..24.
		for key := uint64(1); key <= 24; key++ {
			if err := h.Insert(key, key); err != nil {
				t.Fatalf("preload: %v", err)
			}
		}
		for key := uint64(9); key <= 18; key++ {
			if err := h.Delete(key); err != nil {
				t.Fatalf("drain: %v", err)
			}
		}
		drainTree(e)
		before := survivors(t, h)
		leavesBefore := e.tree.Stats(h).Leaves

		completed := runUntilCrash(e.dev, k, func() {
			if err := h.Delete(19); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			drainTree(e)
		})

		e.reopen(t)
		h2 := e.tree.NewHandle()
		_, err := h2.Get(19)
		present := err == nil
		if !present && !errors.Is(err, ErrNotFound) {
			t.Fatalf("crash at %d: Get: %v", k, err)
		}
		after := survivors(t, h2)
		wantLen := len(before)
		if !present {
			wantLen--
		}
		if len(after) != wantLen {
			t.Fatalf("crash at %d: %d keys after recovery, want %d (19 present=%v)",
				k, len(after), wantLen, present)
		}
		e.checkStructure(t)

		if completed {
			if got := e.tree.Stats(h2).Leaves; got >= leavesBefore {
				t.Fatalf("swept delete never merged: %d leaves before, %d after", leavesBefore, got)
			}
			t.Logf("merge sweep covered %d crash points", k-1)
			return
		}
	}
}

// TestCrashSweepRootCollapse drives deletions that trigger merges and a
// root collapse, with a crash at every device step of the final delete.
func TestCrashSweepRootCollapse(t *testing.T) {
	for k := 1; ; k += sweepStride(k) {
		e := newTreeEnv(t, core.Persistent, SMOPMwCAS, func(c *Config) { c.MergeBelow = 6 })
		h := e.tree.NewHandle()
		for key := uint64(1); key <= 40; key++ {
			if err := h.Insert(key, key); err != nil {
				t.Fatalf("preload: %v", err)
			}
		}
		// Delete down to the brink of total collapse.
		for key := uint64(1); key <= 34; key++ {
			if err := h.Delete(key); err != nil {
				t.Fatalf("drain: %v", err)
			}
		}
		drainTree(e)

		completed := runUntilCrash(e.dev, k, func() {
			// These deletions trigger the remaining merges and collapse.
			for key := uint64(35); key <= 38; key++ {
				if err := h.Delete(key); err != nil {
					t.Fatalf("Delete(%d): %v", key, err)
				}
			}
			drainTree(e)
		})

		e.reopen(t)
		h2 := e.tree.NewHandle()
		e.checkStructure(t)
		// 39 and 40 must always survive; 35..38 depend on the crash point
		// but each must be atomically present or absent.
		for key := uint64(39); key <= 40; key++ {
			if v, err := h2.Get(key); err != nil || v != key {
				t.Fatalf("crash at %d: survivor %d = (%d, %v)", k, key, v, err)
			}
		}
		for key := uint64(35); key <= 38; key++ {
			if _, err := h2.Get(key); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatalf("crash at %d: Get(%d): %v", k, key, err)
			}
		}
		// The tree keeps working through fresh splits after the collapse.
		for key := uint64(100); key < 140; key++ {
			if err := h2.Insert(key, key); err != nil {
				t.Fatalf("crash at %d: post-recovery insert: %v", k, err)
			}
		}
		e.checkStructure(t)

		if completed {
			st := e.tree.Stats(h2)
			t.Logf("root-collapse sweep covered %d crash points (final height %d)", k-1, st.Height)
			return
		}
	}
}

// survivors lists the keys currently in the tree.
func survivors(t *testing.T, h *Handle) []uint64 {
	t.Helper()
	var out []uint64
	if err := h.Scan(1, MaxKey-1, func(e Entry) bool {
		out = append(out, e.Key)
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return out
}

func drainTree(e *tenv) {
	e.pool.Epochs().Advance()
	e.pool.Epochs().Collect()
}

// TestCrashSweepConsolidation crashes across a write that triggers chain
// consolidation, checking the consolidated page (or the original chain)
// survives and no page memory is lost to the point of failure.
func TestCrashSweepConsolidation(t *testing.T) {
	for k := 1; ; k += sweepStride(k) {
		e := newTreeEnv(t, core.Persistent, SMOPMwCAS, nil)
		h := e.tree.NewHandle()
		// Three deltas; the fourth write trips ConsolidateAfter(4).
		for key := uint64(1); key <= 3; key++ {
			if err := h.Insert(key, key); err != nil {
				t.Fatalf("preload: %v", err)
			}
		}
		drainTree(e)

		completed := runUntilCrash(e.dev, k, func() {
			if err := h.Insert(4, 4); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			drainTree(e)
		})

		e.reopen(t)
		h2 := e.tree.NewHandle()
		for key := uint64(1); key <= 3; key++ {
			if got, err := h2.Get(key); err != nil || got != key {
				t.Fatalf("crash at %d: key %d = (%d, %v)", k, key, got, err)
			}
		}
		if _, err := h2.Get(4); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("crash at %d: Get(4): %v", k, err)
		}
		e.checkStructure(t)

		if completed {
			t.Logf("consolidation sweep covered %d crash points", k-1)
			return
		}
	}
}
