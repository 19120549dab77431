package hashtable

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/keycodec"
	"pmwcas/internal/nvram"
)

// upsert stores value under key whether or not it is present, retrying
// the races between Update's miss and Insert's hit.
func upsert(h *Handle, key, value uint64) error {
	for {
		err := h.Update(key, value)
		if !errors.Is(err, ErrNotFound) {
			return err
		}
		err = h.Insert(key, value)
		if !errors.Is(err, ErrKeyExists) {
			return err
		}
	}
}

const (
	htDescs    = 128
	htWords    = MinDescriptorWords
	htHandles  = 16
	htDirSlots = 16 // maxDepth 4: deep chains are reachable in tests
)

type htEnv struct {
	dev     *nvram.Device
	pool    *core.Pool
	alloc   *alloc.Allocator
	tab     *Table
	poolReg nvram.Region
	aReg    nvram.Region
	roots   nvram.Region
	dir     nvram.Region
	spec    []alloc.Class
	slots   int
}

func newHTEnv(t testing.TB, mode core.Mode, slots int) *htEnv {
	return newHTEnvDir(t, mode, slots, htDirSlots)
}

// newHTEnvDir builds an env with a chosen directory size: the reclaim
// tests need a directory deep enough that sealed buckets sit below the
// global depth (only those are reclaimable).
func newHTEnvDir(t testing.TB, mode core.Mode, slots int, dirSlots uint64) *htEnv {
	return newHTEnvSpec(t, mode, slots, dirSlots, []alloc.Class{
		{BlockSize: 128, Count: 4096},
		{BlockSize: 256, Count: 1024},
		{BlockSize: 512, Count: 256},
	})
}

// newHTEnvSpec builds an env over an allocator with the given classes.
func newHTEnvSpec(t testing.TB, mode core.Mode, slots int, dirSlots uint64, spec []alloc.Class) *htEnv {
	t.Helper()
	e := &htEnv{spec: spec, slots: slots}
	poolBytes := core.PoolSize(htDescs, htWords)
	aBytes := alloc.MetaSize(e.spec, htHandles)
	var opts []nvram.Option
	if mode == core.Volatile {
		opts = append(opts, nvram.WithVolatile())
	}
	e.dev = nvram.New(poolBytes+aBytes+dirSlots*nvram.WordSize+1<<13, opts...)
	l := nvram.NewLayout(e.dev)
	e.poolReg = l.Carve(poolBytes)
	e.aReg = l.Carve(aBytes)
	e.roots = l.Carve(nvram.LineBytes)
	e.dir = l.Carve(dirSlots * nvram.WordSize)
	e.build(t, mode, false)
	return e
}

func (e *htEnv) build(t testing.TB, mode core.Mode, recover bool) {
	t.Helper()
	var err error
	e.alloc, err = alloc.New(e.dev, e.aReg, e.spec, htHandles)
	if err != nil {
		t.Fatalf("alloc.New: %v", err)
	}
	e.pool, err = core.NewPool(core.Config{
		Device: e.dev, Region: e.poolReg,
		DescriptorCount: htDescs, WordsPerDescriptor: htWords,
		Mode: mode, Allocator: e.alloc,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	if recover {
		if _, err := e.pool.Recover(); err != nil {
			t.Fatalf("Recover: %v", err)
		}
	}
	e.tab, err = New(Config{
		Pool: e.pool, Allocator: e.alloc,
		Roots: e.roots, Dir: e.dir, SlotsPerBucket: e.slots,
	})
	if err != nil {
		t.Fatalf("hashtable.New: %v", err)
	}
}

func (e *htEnv) reopen(t testing.TB) {
	t.Helper()
	e.dev.SetHook(nil)
	e.dev.Crash()
	e.build(t, core.Persistent, true)
}

// check runs the structural checker and returns the live contents.
func (e *htEnv) check(t testing.TB) map[uint64]uint64 {
	t.Helper()
	_, entries, _, err := Check(e.dev, e.roots, e.dir)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	got := make(map[uint64]uint64, len(entries))
	for _, ent := range entries {
		if _, dup := got[ent.Key]; dup {
			t.Fatalf("Check returned key %#x twice", ent.Key)
		}
		got[ent.Key] = ent.Value
	}
	return got
}

// rawLoad reads one durable word with persistence flags stripped — the
// corruption tests walk the image directly, where words may still carry
// the dirty bit.
func (e *htEnv) rawLoad(off nvram.Offset) uint64 {
	return e.dev.Load(off) &^ core.FlagsMask
}

func TestBasicCRUD(t *testing.T) {
	for _, mode := range []core.Mode{core.Persistent, core.Volatile} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newHTEnv(t, mode, 4)
			h := e.tab.NewHandle()

			if _, err := h.Get(7); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get on empty: %v", err)
			}
			if err := h.Insert(7, 70); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			if err := h.Insert(7, 71); !errors.Is(err, ErrKeyExists) {
				t.Fatalf("duplicate Insert: %v", err)
			}
			if v, err := h.Get(7); err != nil || v != 70 {
				t.Fatalf("Get = (%d, %v)", v, err)
			}
			if err := h.Update(7, 700); err != nil {
				t.Fatalf("Update: %v", err)
			}
			if v, _ := h.Get(7); v != 700 {
				t.Fatalf("after Update, Get = %d", v)
			}
			if err := h.Update(8, 80); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Update missing: %v", err)
			}
			if err := upsert(h, 8, 80); err != nil {
				t.Fatalf("Upsert fresh: %v", err)
			}
			if err := upsert(h, 8, 88); err != nil {
				t.Fatalf("Upsert existing: %v", err)
			}
			if v, _ := h.Get(8); v != 88 {
				t.Fatalf("after Upsert, Get = %d", v)
			}
			if err := h.Delete(7); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if err := h.Delete(7); !errors.Is(err, ErrNotFound) {
				t.Fatalf("double Delete: %v", err)
			}
			if got := h.Len(); got != 1 {
				t.Fatalf("Len = %d, want 1", got)
			}
		})
	}
}

func TestKeyValueValidation(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 4)
	h := e.tab.NewHandle()
	if err := h.Insert(0, 1); !errors.Is(err, ErrKeyRange) {
		t.Fatalf("key 0 accepted: %v", err)
	}
	if err := h.Insert(MaxKey, 1); !errors.Is(err, ErrKeyRange) {
		t.Fatalf("key MaxKey accepted: %v", err)
	}
	if err := h.Insert(5, core.DirtyFlag); !errors.Is(err, ErrValueRange) {
		t.Fatalf("flagged value accepted: %v", err)
	}
	if _, err := h.Get(0); !errors.Is(err, ErrKeyRange) {
		t.Fatalf("Get(0): %v", err)
	}
}

// TestGrowth drives the table through many splits and several directory
// doublings (tiny buckets, 300 keys, 16-entry directory) and verifies
// every key stays reachable and the structure checks clean.
func TestGrowth(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 2)
	h := e.tab.NewHandle()
	const n = 300
	for k := uint64(1); k <= n; k++ {
		if err := h.Insert(k, k*3); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	for k := uint64(1); k <= n; k++ {
		if v, err := h.Get(k); err != nil || v != k*3 {
			t.Fatalf("Get(%d) = (%d, %v)", k, v, err)
		}
	}
	if got := h.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	// Range sees each key exactly once on a quiescent table.
	seen := map[uint64]uint64{}
	h.Range(func(k, v uint64) bool {
		if _, dup := seen[k]; dup {
			t.Fatalf("Range yielded key %d twice", k)
		}
		seen[k] = v
		return true
	})
	if len(seen) != n {
		t.Fatalf("Range saw %d keys, want %d", len(seen), n)
	}
	// Delete every third key, verify the rest.
	for k := uint64(3); k <= n; k += 3 {
		if err := h.Delete(k); err != nil {
			t.Fatalf("Delete(%d): %v", k, err)
		}
	}
	for k := uint64(1); k <= n; k++ {
		v, err := h.Get(k)
		if k%3 == 0 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key %d: (%d, %v)", k, v, err)
			}
		} else if err != nil || v != k*3 {
			t.Fatalf("Get(%d) = (%d, %v)", k, v, err)
		}
	}
	e.reopen(t)
	got := e.check(t)
	for k := uint64(1); k <= n; k++ {
		if k%3 == 0 {
			if _, ok := got[k]; ok {
				t.Fatalf("deleted key %d survives in durable image", k)
			}
		} else if got[k] != k*3 {
			t.Fatalf("durable image has %d = %d", k, got[k])
		}
	}
}

// collidingKeys returns n distinct keys whose hashes share the same low
// `bits` bits — they all route to one bucket chain, forcing local depths
// far beyond the directory's global depth.
func collidingKeys(n, bits int) []uint64 {
	class := mix64(1) & ((1 << uint(bits)) - 1)
	keys := []uint64{1}
	for k := uint64(2); len(keys) < n; k++ {
		if mix64(k)&((1<<uint(bits))-1) == class {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestCollisionHeavy overfills a single hash class so the bucket tree
// grows much deeper than the directory can index, which exercises the
// multi-hop walk, path compression, and the doubling backstop.
func TestCollisionHeavy(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 2)
	h := e.tab.NewHandle()
	// All keys share their low 6 bits; the test directory caps G at 4.
	keys := collidingKeys(24, 6)
	for i, k := range keys {
		if err := h.Insert(k, uint64(i)+1); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	for i, k := range keys {
		if v, err := h.Get(k); err != nil || v != uint64(i)+1 {
			t.Fatalf("Get(%d) = (%d, %v), want %d", k, v, err, i+1)
		}
	}
	for i, k := range keys {
		if i%2 == 0 {
			continue
		}
		if err := h.Delete(k); err != nil {
			t.Fatalf("Delete(%d): %v", k, err)
		}
	}
	e.reopen(t)
	got := e.check(t)
	for i, k := range keys {
		if i%2 == 1 {
			if _, ok := got[k]; ok {
				t.Fatalf("deleted colliding key %d survives", k)
			}
		} else if got[k] != uint64(i)+1 {
			t.Fatalf("colliding key %d = %d, want %d", k, got[k], i+1)
		}
	}
}

// TestStringKeys covers the keycodec interaction: variable-length string
// keys of every encodable length hash and route like any other word key.
func TestStringKeys(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 4)
	h := e.tab.NewHandle()
	names := []string{
		"a", "ab", "abc", "abcd", "abcde", "abcdef", "abcdefg", // every length 1..MaxLen
		"k01", "k02", "k03", "user:1", "user:2", "zzzzzzz", "\x01", "\xff\xfe",
	}
	for i, s := range names {
		k, err := keycodec.EncodeString(s)
		if err != nil {
			t.Fatalf("Encode(%q): %v", s, err)
		}
		if err := h.Insert(k, uint64(i)+100); err != nil {
			t.Fatalf("Insert(%q): %v", s, err)
		}
	}
	for i, s := range names {
		k, _ := keycodec.EncodeString(s)
		if v, err := h.Get(k); err != nil || v != uint64(i)+100 {
			t.Fatalf("Get(%q) = (%d, %v), want %d", s, v, err, i+100)
		}
	}
	// Round-trip through the durable image: decoded keys must come back
	// as the strings that went in.
	e.reopen(t)
	got := e.check(t)
	for _, s := range names {
		k, _ := keycodec.EncodeString(s)
		if _, ok := got[k]; !ok {
			t.Fatalf("string key %q missing from durable image", s)
		}
		back, err := keycodec.Decode(k)
		if err != nil || string(back) != s {
			t.Fatalf("Decode round-trip: %q -> %q (%v)", s, back, err)
		}
	}
}

func TestPersistAcrossRestart(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 4)
	h := e.tab.NewHandle()
	for k := uint64(1); k <= 40; k++ {
		if err := h.Insert(k, k+1000); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	h.Delete(5)
	h.Update(6, 6000)
	e.reopen(t)
	h2 := e.tab.NewHandle()
	for k := uint64(1); k <= 40; k++ {
		v, err := h2.Get(k)
		switch {
		case k == 5:
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key survived restart: (%d, %v)", v, err)
			}
		case k == 6:
			if err != nil || v != 6000 {
				t.Fatalf("updated key: (%d, %v)", v, err)
			}
		default:
			if err != nil || v != k+1000 {
				t.Fatalf("key %d: (%d, %v)", k, v, err)
			}
		}
	}
}

func TestGeometryMismatch(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 4)
	h := e.tab.NewHandle()
	if err := h.Insert(1, 2); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	e.dev.Crash()
	e.alloc, _ = alloc.New(e.dev, e.aReg, e.spec, htHandles)
	pool, err := core.NewPool(core.Config{
		Device: e.dev, Region: e.poolReg,
		DescriptorCount: htDescs, WordsPerDescriptor: htWords,
		Mode: core.Persistent, Allocator: e.alloc,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	if _, err := pool.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if _, err := New(Config{
		Pool: pool, Allocator: e.alloc,
		Roots: e.roots, Dir: e.dir, SlotsPerBucket: 8,
	}); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 4)
	bad := Config{Pool: e.pool, Allocator: e.alloc, Roots: e.roots,
		Dir: nvram.Region{Base: e.dir.Base, Len: 3 * nvram.WordSize}}
	if _, err := New(bad); err == nil {
		t.Fatal("non-power-of-two directory accepted")
	}
	bad = Config{Pool: e.pool, Allocator: e.alloc, Roots: e.roots, Dir: e.dir, SlotsPerBucket: 300}
	if _, err := New(bad); err == nil {
		t.Fatal("SlotsPerBucket 300 accepted")
	}
}

// TestCheckDetectsCorruption plants targeted corruption in the durable
// image and requires the checker to reject each.
func TestCheckDetectsCorruption(t *testing.T) {
	build := func(t *testing.T) *htEnv {
		e := newHTEnv(t, core.Persistent, 2)
		h := e.tab.NewHandle()
		for k := uint64(1); k <= 20; k++ {
			if err := h.Insert(k, k); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
		e.reopen(t)
		return e
	}

	t.Run("wrong-class key", func(t *testing.T) {
		e := build(t)
		// Find a live bucket at depth > 0 via a directory entry and plant a
		// key whose hash routes elsewhere.
		var planted bool
		for j := nvram.Offset(0); j < htDirSlots && !planted; j++ {
			if uint64(j) >= 1<<uint(int(e.rawLoad(e.roots.Base))-1) {
				break
			}
			b := nvram.Offset(e.rawLoad(e.dir.Base + j*nvram.WordSize))
			meta := e.rawLoad(b + bucketMetaOff)
			if metaSealed(meta) || metaDepth(meta) == 0 {
				continue
			}
			class := mix64(1) // some hash
			alien := uint64(0)
			for k := uint64(1); ; k++ {
				if mix64(k)&((1<<uint(metaDepth(meta)))-1) != class&((1<<uint(metaDepth(meta)))-1) {
					alien = k
					break
				}
			}
			_ = alien
			for i := 0; i < e.slots; i++ {
				if e.rawLoad(slotKeyOff(b, i)) != 0 {
					// Overwrite with a key of the wrong class for this bucket.
					cur := e.rawLoad(slotKeyOff(b, i))
					for k := uint64(1); ; k++ {
						if mix64(k)&((1<<uint(metaDepth(meta)))-1) != mix64(cur)&((1<<uint(metaDepth(meta)))-1) {
							e.dev.Store(slotKeyOff(b, i), k)
							planted = true
							break
						}
					}
					break
				}
			}
		}
		if !planted {
			t.Skip("no deep live bucket with a filled slot to corrupt")
		}
		if _, _, _, err := Check(e.dev, e.roots, e.dir); err == nil {
			t.Fatal("wrong-class key passed the checker")
		}
	})

	t.Run("duplicate key", func(t *testing.T) {
		e := build(t)
		// Copy one live key into a free slot of a different live bucket of
		// the right class? Simplest deterministic duplicate: two slots in
		// the same bucket holding the same key.
		var done bool
		for j := nvram.Offset(0); j < htDirSlots && !done; j++ {
			if uint64(j) >= 1<<uint(int(e.rawLoad(e.roots.Base))-1) {
				break
			}
			b := nvram.Offset(e.rawLoad(e.dir.Base + j*nvram.WordSize))
			for metaSealed(e.rawLoad(b + bucketMetaOff)) {
				b = nvram.Offset(e.rawLoad(b + bucketChild0Off))
			}
			var livekey uint64
			freeSlot := -1
			for i := 0; i < e.slots; i++ {
				k := e.rawLoad(slotKeyOff(b, i))
				if k != 0 && livekey == 0 {
					livekey = k
				} else if k == 0 && freeSlot < 0 {
					freeSlot = i
				}
			}
			if livekey != 0 && freeSlot >= 0 {
				e.dev.Store(slotKeyOff(b, freeSlot), livekey)
				e.dev.Store(slotValOff(b, freeSlot), 99)
				done = true
			}
		}
		if !done {
			t.Skip("no bucket with both a live key and a free slot")
		}
		if _, _, _, err := Check(e.dev, e.roots, e.dir); err == nil {
			t.Fatal("duplicate key passed the checker")
		}
	})

	t.Run("descriptor flag in meta", func(t *testing.T) {
		e := build(t)
		b := nvram.Offset(e.rawLoad(e.dir.Base))
		e.dev.Store(b+bucketMetaOff, e.rawLoad(b+bucketMetaOff)|core.MwCASFlag)
		if _, _, _, err := Check(e.dev, e.roots, e.dir); err == nil {
			t.Fatal("descriptor flag passed the checker")
		}
	})
}

// TestConcurrentTorture hammers the table from several goroutines (run
// under -race in CI) and then audits the durable image.
func TestConcurrentTorture(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 4)
	const workers = 4
	ops := 2000
	if testing.Short() {
		ops = 400
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := e.tab.NewHandle()
			rng := rand.New(rand.NewSource(int64(w) + 42))
			for i := 0; i < ops; i++ {
				k := uint64(rng.Intn(128)) + 1
				switch rng.Intn(4) {
				case 0:
					h.Get(k)
				case 1:
					upsert(h, k, uint64(w)<<32|uint64(i))
				case 2:
					h.Delete(k)
				case 3:
					h.Insert(k, uint64(w)<<32|uint64(i))
				}
			}
		}(w)
	}
	wg.Wait()

	// Every surviving key readable, Range and Len agree.
	h := e.tab.NewHandle()
	n := 0
	h.Range(func(k, v uint64) bool {
		n++
		if got, err := h.Get(k); err != nil || got != v {
			t.Errorf("Range key %d = %d but Get = (%d, %v)", k, v, got, err)
			return false
		}
		return true
	})
	if got := h.Len(); got != n {
		t.Fatalf("Len = %d, Range saw %d", got, n)
	}
	e.reopen(t)
	e.check(t)
}

// TestVolatileModeNoFlushes pins the volatile baseline the benchmarks
// divide by: on a volatile device no operation flushes or fences, not
// even one that splits a bucket, doubles the directory or allocates.
func TestVolatileModeNoFlushes(t *testing.T) {
	e := newHTEnv(t, core.Volatile, DefaultSlotsPerBucket)
	h := e.tab.NewHandle()
	const n = 200 // many buckets' worth: splits, doublings, allocations
	for k := uint64(1); k <= n; k++ {
		if err := h.Insert(k, k); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	for k := uint64(1); k <= n; k++ {
		if _, err := h.Get(k); err != nil {
			t.Fatalf("Get: %v", err)
		}
		if err := h.Update(k, k*2); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	for k := uint64(1); k <= n; k += 3 {
		if err := h.Delete(k); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	if st := e.tab.Stats(); st.Splits == 0 || st.Doublings == 0 {
		t.Fatalf("%d keys made %d splits and %d doublings; want both", n, st.Splits, st.Doublings)
	}
	if st := e.dev.Stats(); st.Flushes != 0 || st.Fences != 0 {
		t.Fatalf("volatile table issued %d flushes and %d fences", st.Flushes, st.Fences)
	}
}

func TestLenEmpty(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 4)
	h := e.tab.NewHandle()
	if got := h.Len(); got != 0 {
		t.Fatalf("Len on fresh table = %d", got)
	}
	if err := fmt.Errorf("wrap: %w", ErrUnordered); !errors.Is(err, ErrUnordered) {
		t.Fatal("ErrUnordered lost identity under wrapping")
	}
}

// TestSplitOutOfMemoryUnreserves: with room for one more bucket only, a
// split reserves its first child, fails to reserve the second, and
// returns the first unactivated: the insert fails with ErrOutOfMemory,
// and the free count comes back unchanged.
func TestSplitOutOfMemoryUnreserves(t *testing.T) {
	const slots = 4
	size := (bucketBytes(slots) + nvram.LineBytes - 1) &^ (nvram.LineBytes - 1)
	e := newHTEnvSpec(t, core.Persistent, slots, htDirSlots, []alloc.Class{{BlockSize: size, Count: 2}})
	if n := e.alloc.FreeBlocks(size); n != 1 {
		t.Fatalf("%d buckets free after create, want 1", n)
	}
	h := e.tab.NewHandle()
	var err error
	for k := uint64(1); err == nil && k <= 64; k++ {
		err = h.Insert(k, k)
	}
	if !errors.Is(err, alloc.ErrOutOfMemory) {
		t.Fatalf("inserting past one bucket = %v, want ErrOutOfMemory", err)
	}
	if n := e.alloc.FreeBlocks(size); n != 1 {
		t.Fatalf("%d buckets free after the failed split, want 1", n)
	}
	if n, _ := e.alloc.InUse(); n != 1 {
		t.Fatalf("%d blocks in use after the failed split, want the root bucket", n)
	}
}
