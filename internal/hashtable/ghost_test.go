package hashtable

import (
	"errors"
	"testing"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

// ghosts lists the durable image's ghost slots: keys a split moved to a
// sibling, left behind in the bucket it split.
func (e *htEnv) ghosts() map[uint64]nvram.Offset {
	out := make(map[uint64]nvram.Offset)
	for _, b := range e.buckets() {
		meta := e.rawLoad(b + bucketMetaOff)
		for i := 0; i < e.slots; i++ {
			if k := e.rawLoad(slotKeyOff(b, i)); k != 0 && strayBits(mix64(k), meta) != 0 {
				out[k] = b
			}
		}
	}
	return out
}

// TestMovedKeyDeletedFromSibling: a key a split moved still sits in the
// bucket it left, as a ghost. Deleting it from its sibling must make it
// absent from Get, Range, Len and Check, before and after a crash.
func TestMovedKeyDeletedFromSibling(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 4)
	h := e.tab.NewHandle()
	const n = 64
	for k := uint64(1); k <= n; k++ {
		if err := h.Insert(k, k*5); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	var victim uint64
	for k := range e.ghosts() {
		victim = k
		break
	}
	if victim == 0 {
		t.Fatal("64 keys in 4-slot buckets left no ghost")
	}
	if err := h.Delete(victim); err != nil {
		t.Fatalf("Delete(%d): %v", victim, err)
	}
	if _, still := e.ghosts()[victim]; !still {
		t.Fatalf("deleting key %d from its sibling took its ghost too: the test is vacuous", victim)
	}
	absent := func(when string) {
		h := e.tab.NewHandle()
		if _, err := h.Get(victim); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: Get(%d) = %v, want ErrNotFound", when, victim, err)
		}
		h.Range(func(k, v uint64) bool {
			if k == victim {
				t.Fatalf("%s: Range yielded the deleted key %d", when, k)
			}
			return true
		})
		if got := h.Len(); got != n-1 {
			t.Fatalf("%s: Len = %d, want %d", when, got, n-1)
		}
		for k := uint64(1); k <= n; k++ {
			if v, err := h.Get(k); k != victim && (err != nil || v != k*5) {
				t.Fatalf("%s: Get(%d) = (%d, %v)", when, k, v, err)
			}
		}
	}
	absent("before the crash")
	e.reopen(t)
	if got := e.check(t); len(got) != n-1 {
		t.Fatalf("Check found %d keys, want %d", len(got), n-1)
	} else if _, ok := got[victim]; ok {
		t.Fatalf("Check returned the deleted key %d", victim)
	}
	absent("after the crash")
}

// TestPutOwnedReusesGhost: a blob-mode PutOwned into a bucket whose only
// free slots are ghosts takes a ghost's slot and frees nothing: the
// ghost's value block belongs to the sibling that holds its key. The
// value class's free count moves by exactly the one block put, and the
// recovered image reaches exactly the blocks in use.
func TestPutOwnedReusesGhost(t *testing.T) {
	// Buckets of 2 slots fill the 64-byte class; values take 128 bytes,
	// the largest class, so FreeBlocks(valSize) counts values only.
	const valSize = 128
	e := newHTEnvSpec(t, core.Persistent, 2, []alloc.Class{
		{BlockSize: 64, Count: 512},
		{BlockSize: valSize, Count: 512},
	})
	h := e.tab.NewHandle()
	ah := e.alloc.NewHandle()
	put := func(k uint64) {
		t.Helper()
		b, err := ah.Reserve(valSize)
		if err != nil {
			t.Fatalf("Reserve: %v", err)
		}
		if err := h.PutOwned(k, b); err != nil {
			t.Fatalf("PutOwned(%d): %v", k, err)
		}
	}
	drain := func() {
		for i := 0; i < 3; i++ {
			e.pool.Epochs().Advance()
			e.pool.Epochs().Collect()
		}
	}
	// Grow until some bucket has no empty slot and a ghost in one.
	var target nvram.Offset
	ghostSlot := -1
	next := uint64(1)
	for ; target == 0 && next <= 200; next++ {
		put(next)
		for _, b := range e.buckets() {
			meta := e.rawLoad(b + bucketMetaOff)
			empty, ghost := false, -1
			for i := 0; i < e.slots; i++ {
				k := e.rawLoad(slotKeyOff(b, i))
				if k == 0 {
					empty = true
				} else if strayBits(mix64(k), meta) != 0 {
					ghost = i
				}
			}
			if !empty && ghost >= 0 {
				target, ghostSlot = b, ghost
				break
			}
		}
	}
	if target == 0 {
		t.Fatal("no bucket whose only free slots are ghosts")
	}
	// A fresh key in the target bucket's current class: its creation
	// class, which any key it holds shows, with zeros above.
	meta := e.rawLoad(target + bucketMetaOff)
	class := mix64(e.rawLoad(slotKeyOff(target, ghostSlot))) & (1<<uint(metaCreated(meta)) - 1)
	fresh := next + 1000
	for mix64(fresh)&(1<<uint(metaDepth(meta))-1) != class {
		fresh++
	}
	ghostVal := e.rawLoad(slotValOff(target, ghostSlot))
	drain()
	freeBefore := e.alloc.FreeBlocks(valSize)
	bucketsBefore := e.alloc.FreeBlocks(64) - freeBefore
	put(fresh)
	drain()
	if got := e.rawLoad(slotKeyOff(target, ghostSlot)); got != fresh {
		t.Fatalf("ghost slot holds %d after the put, want %d", got, fresh)
	}
	if got := e.alloc.FreeBlocks(valSize); got != freeBefore-1 {
		t.Fatalf("%d value blocks free after one put, want %d: the ghost's value %#x was freed", got, freeBefore-1, ghostVal)
	}
	if got := e.alloc.FreeBlocks(64) - e.alloc.FreeBlocks(valSize); got != bucketsBefore {
		t.Fatalf("%d bucket blocks free after a put into a ghost slot, want %d", got, bucketsBefore)
	}
	e.reopen(t)
	blocks, entries, _, err := Check(e.dev, e.roots, e.dir)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	for _, ent := range entries {
		blocks = append(blocks, nvram.Offset(ent.Value))
	}
	if err := e.alloc.CheckInUse(blocks); err != nil {
		t.Fatalf("CheckInUse: %v", err)
	}
	if len(entries) != int(next) {
		t.Fatalf("Check found %d keys, want %d", len(entries), next)
	}
}

// TestOlderDirectoryHints: buckets are never freed, so any directory
// value that was once valid stays valid. With every entry forced back to
// an older hint — the first bucket, or the entry's lower-half twin —
// every key is still found and writable, and the image checks clean.
func TestOlderDirectoryHints(t *testing.T) {
	for _, tc := range []struct {
		name string
		hint func(e *htEnv, j nvram.Offset) uint64
	}{
		{"first bucket", func(e *htEnv, j nvram.Offset) uint64 { return e.rawLoad(e.dir.Base) }},
		{"lower-half twin", func(e *htEnv, j nvram.Offset) uint64 {
			g := int(e.rawLoad(e.roots.Base)) - 1
			return e.rawLoad(e.dir.Base + (j&(1<<uint(g-1)-1))*nvram.WordSize)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newHTEnv(t, core.Persistent, 2)
			h := e.tab.NewHandle()
			const n = 300
			for k := uint64(1); k <= n; k++ {
				if err := h.Insert(k, k); err != nil {
					t.Fatalf("Insert(%d): %v", k, err)
				}
			}
			e.reopen(t)
			g := int(e.rawLoad(e.roots.Base)) - 1
			if g < 2 {
				t.Fatalf("global depth %d: too shallow for older hints", g)
			}
			changed := 0
			for j := nvram.Offset(0); j < 1<<uint(g); j++ {
				off := e.dir.Base + j*nvram.WordSize
				if v := tc.hint(e, j); v != e.rawLoad(off) {
					e.dev.Store(off, v)
					changed++
				}
			}
			if changed == 0 {
				t.Fatal("no entry moved: the test is vacuous")
			}
			e.tab.flushRange(e.dir.Base, uint64(1)<<uint(g)*nvram.WordSize)
			e.check(t)
			h = e.tab.NewHandle()
			for k := uint64(1); k <= n; k++ {
				if v, err := h.Get(k); err != nil || v != k {
					t.Fatalf("Get(%d) = (%d, %v)", k, v, err)
				}
			}
			for k := uint64(1); k <= n; k += 2 {
				if err := h.Update(k, k*2); err != nil {
					t.Fatalf("Update(%d): %v", k, err)
				}
			}
			for k := uint64(n + 1); k <= n+50; k++ {
				if err := h.Insert(k, k*2); err != nil {
					t.Fatalf("Insert(%d): %v", k, err)
				}
			}
			e.reopen(t)
			got := e.check(t)
			if len(got) != n+50 {
				t.Fatalf("Check found %d keys, want %d", len(got), n+50)
			}
			for k, v := range got {
				want := k
				if k > n || k%2 == 1 {
					want = k * 2
				}
				if v != want {
					t.Fatalf("key %d = %d, want %d", k, v, want)
				}
			}
		})
	}
}
