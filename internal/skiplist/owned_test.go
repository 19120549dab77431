package skiplist

import (
	"errors"
	"sync"
	"testing"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/index"
)

// block reserves a 64-byte block through ah, the value a PutOwned
// consumes, and fills its first word with word.
func (e *lenv) block(t *testing.T, ah *alloc.Handle, word uint64) uint64 {
	t.Helper()
	b, err := ah.Reserve(64)
	if err != nil {
		t.Fatal(err)
	}
	e.dev.Store(b, word)
	return b
}

func (e *lenv) drain() {
	for i := 0; i < 3; i++ {
		e.pool.Epochs().Advance()
		e.pool.Epochs().Collect()
	}
}

// PutOwned consumes value. It inserts an absent key, activating the
// reserved block, and frees nothing; over a present key it replaces the
// value and frees the displaced block once the epoch allows.
func TestPutOwnedSemantics(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	ah := e.alloc.NewHandle()
	base, _ := e.alloc.InUse()
	inUse := func(want uint64, when string) {
		t.Helper()
		e.drain()
		if blocks, _ := e.alloc.InUse(); blocks != base+want {
			t.Fatalf("%s: %d blocks in use, want %d", when, blocks-base, want)
		}
	}
	a := e.block(t, ah, 0)
	if err := h.PutOwned(5, a); err != nil {
		t.Fatalf("PutOwned(absent): %v", err)
	}
	if v, _ := h.Get(5); v != a {
		t.Fatalf("value = %#x, want %#x", v, a)
	}
	inUse(2, "after the insert") // node, a
	b := e.block(t, ah, 0)
	if err := h.PutOwned(5, b); err != nil {
		t.Fatalf("PutOwned(present): %v", err)
	}
	if v, _ := h.Get(5); v != b {
		t.Fatalf("value = %#x, want %#x", v, b)
	}
	inUse(2, "after the replace") // node, b
}

// DirtyValue returns a value with a reserved bit for validation tests.
func DirtyValue() uint64 { return core.DirtyFlag }

// Concurrent PutOwned calls on one key each displace exactly one block,
// and a put whose PMwCAS loses its race (index.ErrRaced) retries with a
// new block: every displaced or raced block is freed once, and only the
// last one stays.
func TestPutOwnedConcurrentFreesEachDisplaced(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	base, _ := e.alloc.InUse()
	free := e.alloc.FreeBlocks(64)
	const goroutines = 4
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := e.list.NewHandle(int64(g))
			ah := e.alloc.NewHandle()
			for i := 0; i < perG; i++ {
				err := h.PutOwned(7, e.block(t, ah, 0))
				for err == index.ErrRaced {
					err = h.PutOwned(7, e.block(t, ah, 0))
				}
				if err != nil {
					t.Errorf("PutOwned: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	e.drain()
	if blocks, _ := e.alloc.InUse(); blocks != base+2 { // node + the last block
		t.Fatalf("blocks = %d, want %d: displaced blocks leaked", blocks, base+2)
	}
	if got := e.alloc.FreeBlocks(64); got != free-2 {
		t.Fatalf("%d blocks free, want %d: a raced block was not released", got, free-2)
	}
}

func TestDeleteValueReturnsExactValue(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	ah := e.alloc.NewHandle()
	b := e.block(t, ah, 0)
	if err := h.PutOwned(3, b); err != nil {
		t.Fatal(err)
	}
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

	blockA := e.block(t, ah, 0)
	if err := h.PutOwned(9, blockA); err != nil {
		t.Fatal(err)
	}
	blockB := e.block(t, ah, 0)
	// Replace A with B: A must be freed by the policy.
	if err := h.PutOwned(9, blockB); err != nil {
		t.Fatalf("PutOwned: %v", err)
	}
	e.drain()
	blocks, _ := e.alloc.InUse()
	if blocks != base+2 { // node + blockB
		t.Fatalf("blocks = %d, want %d (A freed)", blocks, base+2)
	}
	// Delete: node and B both reclaimed.
	v, err := h.DeleteOwned(9)
	if err != nil || v != blockB {
		t.Fatalf("DeleteOwned = (%#x, %v)", v, err)
	}
	e.drain()
	blocks, _ = e.alloc.InUse()
	if blocks != base {
		t.Fatalf("blocks = %d, want %d after DeleteOwned", blocks, base)
	}
}

// A refused PutOwned frees nothing live: a value with reserved bits and
// a key out of range are refused, the second's block goes back to the
// allocator, and the value in place stays.
func TestOwnedUpdateFailureFreesNothing(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	ah := e.alloc.NewHandle()
	blockA := e.block(t, ah, 0)
	if err := h.PutOwned(4, blockA); err != nil {
		t.Fatal(err)
	}
	if err := h.PutOwned(4, DirtyValue()); !errors.Is(err, ErrValueRange) {
		t.Fatalf("flagged PutOwned = %v, want ErrValueRange", err)
	}
	free := e.alloc.FreeBlocks(64)
	if err := h.PutOwned(MaxKey, e.block(t, ah, 0)); !errors.Is(err, ErrKeyRange) {
		t.Fatalf("PutOwned(MaxKey) = %v, want ErrKeyRange", err)
	}
	if got := e.alloc.FreeBlocks(64); got != free {
		t.Fatalf("%d blocks free after a refused PutOwned, want %d", got, free)
	}
	e.drain()
	if v, _ := h.Get(4); v != blockA {
		t.Fatalf("value = %#x, want %#x", v, blockA)
	}
	// Still allocated: freeing it here succeeds exactly once.
	if err := e.alloc.Free(blockA); err != nil {
		t.Fatalf("a no-op PutOwned freed the live block: %v", err)
	}
}
