package skiplist

import (
	"errors"
	"sync"
	"testing"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/index"
	"pmwcas/internal/nvram"
)

// block allocates a 64-byte block through ah, delivered into a spare
// roots word (the list uses the first RootWords), and persists word in
// its first word.
func (e *lenv) block(t *testing.T, ah *alloc.Handle, slot int, word uint64) uint64 {
	t.Helper()
	b, err := ah.Alloc(64, e.roots.Base+nvram.Offset(RootWords+slot)*nvram.WordSize)
	if err != nil {
		t.Fatal(err)
	}
	e.dev.Store(b, word)
	e.dev.Flush(b)
	e.dev.Fence()
	return b
}

func (e *lenv) drain() {
	for i := 0; i < 3; i++ {
		e.pool.Epochs().Advance()
		e.pool.Epochs().Collect()
	}
}

func TestCompareUpdateSemantics(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	ah := e.alloc.NewHandle()
	a, b := e.block(t, ah, 0, 0), e.block(t, ah, 0, 0)
	if err := h.CompareUpdateOwned(5, a, b); !errors.Is(err, ErrNotFound) {
		t.Fatalf("CompareUpdateOwned(absent): %v", err)
	}
	h.Insert(5, a)
	if err := h.CompareUpdateOwned(5, b, a); !errors.Is(err, index.ErrValueMismatch) {
		t.Fatalf("stale expect: %v", err)
	}
	if v, _ := h.Get(5); v != a {
		t.Fatalf("failed CAS mutated value: %#x", v)
	}
	if err := h.CompareUpdateOwned(5, a, b); err != nil {
		t.Fatalf("CompareUpdateOwned: %v", err)
	}
	if v, _ := h.Get(5); v != b {
		t.Fatalf("value = %#x, want %#x", v, b)
	}
	// Same-value CAS is a no-op: it must not free the block in place.
	if err := h.CompareUpdateOwned(5, b, b); err != nil {
		t.Fatalf("same-value CAS: %v", err)
	}
	e.drain()
	if err := e.alloc.Free(b); err != nil {
		t.Fatalf("same-value CAS freed the live block: %v", err)
	}
	if err := h.CompareUpdateOwned(5, DirtyValue(), 1); err == nil {
		t.Fatal("flagged expect accepted")
	}
}

// DirtyValue returns a value with a reserved bit for validation tests.
func DirtyValue() uint64 { return core.DirtyFlag }

// Concurrent owned CASes on one key linearize: each replaces the block
// holding count c with a fresh one holding c+1, so no increment is lost,
// and every displaced block is freed.
func TestCompareUpdateLinearizesConcurrentCAS(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	base, _ := e.alloc.InUse()
	setup := e.list.NewHandle(0)
	ah := e.alloc.NewHandle()
	setup.Insert(7, e.block(t, ah, 0, 0))
	const goroutines = 4
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := e.list.NewHandle(int64(g))
			ah := e.alloc.NewHandle()
			guard := h.Guard()
			for i := 0; i < perG; i++ {
				nb := e.block(t, ah, g, 0)
				for {
					// The guard spans read and CAS. Released in between,
					// it would let v be freed and recycled into another
					// goroutine's update before this CAS (ABA), which
					// would then overwrite a newer count. compareUpdate,
					// unlike CompareUpdateOwned, returns pool exhaustion,
					// so the guard is dropped before reclaiming.
					guard.Enter()
					v, err := h.Get(7)
					if err != nil {
						guard.Exit()
						t.Errorf("Get: %v", err)
						return
					}
					e.dev.Store(nb, e.dev.Load(v)+1)
					e.dev.Flush(nb)
					e.dev.Fence()
					err = h.compareUpdate(7, v, nb, core.PolicyFreeOldOnSuccess)
					guard.Exit()
					if err == nil {
						break
					}
					if errors.Is(err, core.ErrPoolExhausted) {
						e.pool.ReclaimPause()
						continue
					}
					if !errors.Is(err, index.ErrValueMismatch) {
						t.Errorf("CompareUpdateOwned: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	h := e.list.NewHandle(99)
	if v, _ := h.Get(7); e.dev.Load(v) != goroutines*perG {
		t.Fatalf("counter = %d, want %d: lost updates", e.dev.Load(v), goroutines*perG)
	}
	e.drain()
	if blocks, _ := e.alloc.InUse(); blocks != base+2 { // node + the last block
		t.Fatalf("blocks = %d, want %d: displaced blocks leaked", blocks, base+2)
	}
}

func TestDeleteValueReturnsExactValue(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	ah := e.alloc.NewHandle()
	b := e.block(t, ah, 0, 0)
	h.Insert(3, b)
	v, err := h.DeleteOwned(3)
	if err != nil || v != b {
		t.Fatalf("DeleteOwned = (%#x, %v), want %#x", v, err, b)
	}
	if _, err := h.DeleteOwned(3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double DeleteOwned: %v", err)
	}
}

// Owned variants: values are allocator blocks whose lifecycle rides the
// PMwCAS recycle policies.
func TestOwnedValueLifecycle(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	ah := e.alloc.NewHandle()
	base, _ := e.alloc.InUse()

	blockA := e.block(t, ah, 0, 0)
	if err := h.Insert(9, blockA); err != nil {
		t.Fatal(err)
	}
	blockB := e.block(t, ah, 0, 0)
	// Replace A with B: A must be freed by the policy.
	if err := h.CompareUpdateOwned(9, blockA, blockB); err != nil {
		t.Fatalf("CompareUpdateOwned: %v", err)
	}
	e.pool.Epochs().Advance()
	e.pool.Epochs().Collect()
	blocks, _ := e.alloc.InUse()
	if blocks != base+2 { // node + blockB
		t.Fatalf("blocks = %d, want %d (A freed)", blocks, base+2)
	}
	// Delete: node and B both reclaimed.
	v, err := h.DeleteOwned(9)
	if err != nil || v != blockB {
		t.Fatalf("DeleteOwned = (%#x, %v)", v, err)
	}
	e.pool.Epochs().Advance()
	e.pool.Epochs().Collect()
	blocks, _ = e.alloc.InUse()
	if blocks != base {
		t.Fatalf("blocks = %d, want %d after DeleteOwned", blocks, base)
	}
}

// A failed CompareUpdateOwned must not free anything.
func TestOwnedUpdateFailureFreesNothing(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	ah := e.alloc.NewHandle()
	blockA := e.block(t, ah, 0, 0)
	h.Insert(4, blockA)
	blockB := e.block(t, ah, 0, 0)
	if err := h.CompareUpdateOwned(4, blockA+64 /* wrong */, blockB); !errors.Is(err, index.ErrValueMismatch) {
		t.Fatalf("stale owned CAS: %v", err)
	}
	e.pool.Epochs().Advance()
	e.pool.Epochs().Collect()
	// Both blocks still owned (B is the caller's problem to free/retry).
	if err := e.alloc.Free(blockB); err != nil {
		t.Fatalf("blockB was freed by a failed CAS: %v", err)
	}
	if v, _ := h.Get(4); v != blockA {
		t.Fatalf("value changed on failed CAS: %#x", v)
	}
}
