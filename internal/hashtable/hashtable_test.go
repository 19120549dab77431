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
	htDescs   = 128
	htWords   = MinDescriptorWords
	htHandles = 16
)

type htEnv struct {
	dev     *nvram.Device
	pool    *core.Pool
	alloc   *alloc.Allocator
	tab     *Table
	poolReg nvram.Region
	aReg    nvram.Region
	roots   nvram.Region
	spec    []alloc.Class
	slots   int
}

func newHTEnv(t testing.TB, mode core.Mode, slots int) *htEnv {
	return newHTEnvSpec(t, mode, slots, []alloc.Class{
		{BlockSize: 128, Count: 4096},
		{BlockSize: 256, Count: 1024},
		{BlockSize: 512, Count: 256},
	})
}

// newHTEnvSpec builds an env over an allocator with the given classes.
func newHTEnvSpec(t testing.TB, mode core.Mode, slots int, spec []alloc.Class) *htEnv {
	t.Helper()
	e := &htEnv{spec: spec, slots: slots}
	poolBytes := core.PoolSize(htDescs, htWords)
	aBytes := alloc.MetaSize(e.spec, htHandles)
	var opts []nvram.Option
	if mode == core.Volatile {
		opts = append(opts, nvram.WithVolatile())
	}
	e.dev = nvram.New(poolBytes+aBytes+1<<13, opts...)
	l := nvram.NewLayout(e.dev)
	e.poolReg = l.Carve(poolBytes)
	e.aReg = l.Carve(aBytes)
	e.roots = l.Carve(nvram.LineBytes)
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
		Roots: e.roots, SlotsPerBucket: e.slots,
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
	_, entries, _, err := Check(e.dev, e.roots)
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
// doublings (tiny buckets, 300 keys) and verifies every key stays
// reachable, also through the cold directory after a restart, and the
// structure checks clean.
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
	h = e.tab.NewHandle()
	for k := uint64(1); k <= n; k++ {
		v, err := h.Get(k)
		if k%3 == 0 {
			if _, ok := got[k]; ok {
				t.Fatalf("deleted key %d survives in durable image", k)
			}
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("after restart, deleted key %d: (%d, %v)", k, v, err)
			}
		} else if got[k] != k*3 || err != nil || v != k*3 {
			t.Fatalf("durable image has %d = %d, Get = (%d, %v)", k, got[k], v, err)
		}
	}
}

// collidingKeys returns n distinct keys whose hashes share the same low
// `bits` bits — they all route to one bucket chain, forcing local depths
// far beyond the depth the rest of the table needs.
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

// TestCollisionHeavy overfills a single hash class so its buckets are
// created much deeper than the rest of the table, which exercises
// multi-hop sibling-chain walks (every lookup after the restart starts
// at the first bucket), path compression, and the doubling backstop.
func TestCollisionHeavy(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 2)
	h := e.tab.NewHandle()
	// All keys share their low 6 bits.
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
	h = e.tab.NewHandle()
	for i, k := range keys {
		v, err := h.Get(k)
		if i%2 == 1 {
			if _, ok := got[k]; ok || !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted colliding key %d survives: (%d, %v)", k, v, err)
			}
		} else if got[k] != uint64(i)+1 || err != nil || v != uint64(i)+1 {
			t.Fatalf("colliding key %d = %d, Get = (%d, %v), want %d", k, got[k], v, err, i+1)
		}
	}
}

// TestDirectoryCapFollowsArena: keys that share their low 12 hash bits
// split one bucket chain twelve levels deep, in an arena of 32 buckets.
// The directory stops at twice the buckets the arena can hold, 64
// entries, instead of doubling after the chain, and every key is still
// found through the chain.
func TestDirectoryCapFollowsArena(t *testing.T) {
	const blocks = 32
	e := newHTEnvSpec(t, core.Persistent, 2, []alloc.Class{{BlockSize: 64, Count: blocks}})
	h := e.tab.NewHandle()
	keys := collidingKeys(3, 12)
	for i, k := range keys {
		if err := h.Insert(k, uint64(i)+1); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	deepest := 0
	for _, b := range e.buckets() {
		deepest = max(deepest, metaDepth(e.rawLoad(b+bucketMetaOff)))
	}
	if deepest < 12 {
		t.Fatalf("deepest bucket at depth %d: the keys did not collide", deepest)
	}
	if n := len(*e.tab.dir.Load()); n != 2*blocks {
		t.Fatalf("directory of %d entries over an arena of %d buckets, want %d", n, blocks, 2*blocks)
	}
	for i, k := range keys {
		if v, err := h.Get(k); err != nil || v != uint64(i)+1 {
			t.Fatalf("Get(%d) = (%d, %v), want %d", k, v, err, i+1)
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
		Roots: e.roots, SlotsPerBucket: 8,
	}); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 4)
	bad := Config{Pool: e.pool, Allocator: e.alloc, Roots: nvram.Region{Base: e.roots.Base, Len: nvram.WordSize}}
	if _, err := New(bad); err == nil {
		t.Fatal("one-word roots region accepted")
	}
	bad = Config{Pool: e.pool, Allocator: e.alloc, Roots: e.roots, SlotsPerBucket: 300}
	if _, err := New(bad); err == nil {
		t.Fatal("SlotsPerBucket 300 accepted")
	}
}

// buckets lists every bucket of the durable image: the tree of sib and
// prev words hanging off the root anchor, the first bucket.
func (e *htEnv) buckets() []nvram.Offset {
	var out []nvram.Offset
	stack := []nvram.Offset{nvram.Offset(e.rawLoad(e.roots.Base))}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, b)
		for _, off := range [2]nvram.Offset{bucketSibOff, bucketPrevOff} {
			if w := e.rawLoad(b + off); w != 0 {
				stack = append(stack, nvram.Offset(w))
			}
		}
	}
	return out
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
		e.check(t)
		return e
	}
	// find returns the first bucket (in walk order) and slot for which
	// pick says yes; a slot of -1 asks about the bucket alone.
	find := func(t *testing.T, e *htEnv, pick func(b nvram.Offset, meta uint64, i int) bool) (nvram.Offset, int) {
		for _, b := range e.buckets() {
			meta := e.rawLoad(b + bucketMetaOff)
			for i := -1; i < e.slots; i++ {
				if pick(b, meta, i) {
					return b, i
				}
			}
		}
		t.Fatal("the 20-key image holds no bucket to corrupt")
		return 0, 0
	}
	live := func(e *htEnv, b nvram.Offset, meta uint64, i int) bool {
		k := e.rawLoad(slotKeyOff(b, i))
		return k != 0 && strayBits(mix64(k), meta) == 0
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, e *htEnv)
	}{
		{"wrong-class key", func(t *testing.T, e *htEnv) {
			// A key whose hash lies outside a sibling's creation class.
			b, i := find(t, e, func(b nvram.Offset, meta uint64, i int) bool {
				return i >= 0 && metaCreated(meta) > 0 && live(e, b, meta, i)
			})
			c := uint(metaCreated(e.rawLoad(b + bucketMetaOff)))
			cur := mix64(e.rawLoad(slotKeyOff(b, i)))
			k := uint64(1)
			for mix64(k)&(1<<c-1) == cur&(1<<c-1) {
				k++
			}
			e.dev.Store(slotKeyOff(b, i), k)
		}},
		{"duplicate key", func(t *testing.T, e *htEnv) {
			// A live key copied into an empty or ghost slot of its bucket.
			b, i := find(t, e, func(b nvram.Offset, meta uint64, i int) bool {
				return i >= 0 && !live(e, b, meta, i)
			})
			for j := 0; j < e.slots; j++ {
				if live(e, b, e.rawLoad(b+bucketMetaOff), j) {
					e.dev.Store(slotKeyOff(b, i), e.rawLoad(slotKeyOff(b, j)))
					e.dev.Store(slotValOff(b, i), 99)
					return
				}
			}
			t.Skip("the bucket with a free slot holds no live key")
		}},
		{"wrong chain link", func(t *testing.T, e *htEnv) {
			// A sib word skipping the newest sibling: the chain then
			// starts one creation depth short.
			b, _ := find(t, e, func(b nvram.Offset, meta uint64, i int) bool {
				return i < 0 && metaDepth(meta) >= metaCreated(meta)+2
			})
			sib := nvram.Offset(e.rawLoad(b + bucketSibOff))
			e.dev.Store(b+bucketSibOff, e.rawLoad(sib+bucketPrevOff))
		}},
		{"value in empty slot", func(t *testing.T, e *htEnv) {
			b, i := find(t, e, func(b nvram.Offset, meta uint64, i int) bool {
				return i >= 0 && e.rawLoad(slotKeyOff(b, i)) != 0
			})
			e.dev.Store(slotKeyOff(b, i), 0)
		}},
		{"root anchor names a sibling", func(t *testing.T, e *htEnv) {
			// The first bucket's newest sibling was created at the first
			// bucket's depth, not at depth 0: it covers one class only.
			first := nvram.Offset(e.rawLoad(e.roots.Base))
			e.dev.Store(e.roots.Base, e.rawLoad(first+bucketSibOff))
		}},
		{"descriptor flag in meta", func(t *testing.T, e *htEnv) {
			b := nvram.Offset(e.rawLoad(e.roots.Base))
			e.dev.Store(b+bucketMetaOff, e.rawLoad(b+bucketMetaOff)|core.MwCASFlag)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := build(t)
			tc.corrupt(t, e)
			if _, _, _, err := Check(e.dev, e.roots); err == nil {
				t.Fatalf("%s passed the checker", tc.name)
			} else {
				t.Log(err)
			}
		})
	}
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

// TestSplitOutOfMemoryUnreserves: with room for one more bucket only,
// the first split takes it and the next finds no block to reserve: the
// insert fails with ErrOutOfMemory, and the failed split holds nothing —
// the two blocks in use are the two buckets the image reaches.
func TestSplitOutOfMemoryUnreserves(t *testing.T) {
	const slots = 4
	size := (bucketBytes(slots) + nvram.LineBytes - 1) &^ (nvram.LineBytes - 1)
	e := newHTEnvSpec(t, core.Persistent, slots, []alloc.Class{{BlockSize: size, Count: 2}})
	if n := e.alloc.FreeBlocks(size); n != 1 {
		t.Fatalf("%d buckets free after create, want 1", n)
	}
	h := e.tab.NewHandle()
	var err error
	for k := uint64(1); err == nil && k <= 64; k++ {
		err = h.Insert(k, k)
	}
	if !errors.Is(err, alloc.ErrOutOfMemory) {
		t.Fatalf("inserting past two buckets = %v, want ErrOutOfMemory", err)
	}
	if st := e.tab.Stats(); st.Splits != 1 {
		t.Fatalf("%d splits committed, want 1", st.Splits)
	}
	if n := e.alloc.FreeBlocks(size); n != 0 {
		t.Fatalf("%d buckets free after the failed split, want 0", n)
	}
	if n, _ := e.alloc.InUse(); n != 2 {
		t.Fatalf("%d blocks in use after the failed split, want the two buckets", n)
	}
	e.reopen(t)
	if _, _, cs, err := Check(e.dev, e.roots); err != nil || cs.Buckets != 2 {
		t.Fatalf("Check = (%+v, %v), want 2 buckets", cs, err)
	}
}

// TestSplitSiblingInRecycledBlock splits into a block whose earlier
// occupant left every word non-zero and durable. Reserve stores nothing,
// so the split must write the whole sibling: its header, the keys it
// moves, and zero in every slot after them, in both images.
func TestSplitSiblingInRecycledBlock(t *testing.T) {
	const slots = 4
	size := (bucketBytes(slots) + nvram.LineBytes - 1) &^ (nvram.LineBytes - 1)
	e := newHTEnvSpec(t, core.Persistent, slots, []alloc.Class{{BlockSize: size, Count: 2}})
	ah := e.alloc.NewHandle()
	junk, err := ah.Reserve(size)
	if err != nil {
		t.Fatal(err)
	}
	for off := junk; off < junk+size; off += nvram.WordSize {
		e.dev.Store(off, 0x5a5a)
	}
	e.dev.FlushAll()
	e.alloc.Unreserve(junk)

	h := e.tab.NewHandle()
	keys := 0
	for e.tab.Stats().Splits == 0 {
		keys++
		if err := h.Insert(uint64(keys), uint64(keys)); err != nil {
			t.Fatal(err)
		}
	}
	b := nvram.Offset(e.rawLoad(e.roots.Base))
	s := nvram.Offset(e.rawLoad(b + bucketSibOff))
	if s != junk {
		t.Fatalf("the split's sibling is %#x, want the recycled block %#x", s, junk)
	}
	for _, img := range []struct {
		name string
		load func(nvram.Offset) uint64
	}{
		{"cache", func(off nvram.Offset) uint64 { return e.dev.Load(off) &^ core.FlagsMask }},
		{"persisted", func(off nvram.Offset) uint64 { return e.dev.PersistedLoad(off) &^ core.FlagsMask }},
	} {
		if sib, spare := img.load(s+bucketSibOff), img.load(s+bucketSpareOff); sib != 0 || spare != 0 {
			t.Errorf("%s: sibling's sib and spare words = %#x, %#x, want 0", img.name, sib, spare)
		}
		bit := uint(metaCreated(img.load(s+bucketMetaOff)) - 1) // the hash bit the split moved on
		moved := 0
		for i := 0; i < slots; i++ {
			k, v := img.load(slotKeyOff(s, i)), img.load(slotValOff(s, i))
			switch {
			case k != 0 && i == moved && v == k && mix64(k)>>bit&1 == 1:
				moved++
			case k != 0 || v != 0:
				t.Errorf("%s: sibling slot %d = (%#x, %#x), want a moved key first, then empty slots", img.name, i, k, v)
			}
		}
		if moved == 0 {
			t.Errorf("%s: the split moved no key", img.name)
		}
	}
	e.reopen(t)
	if got := e.check(t); len(got) != keys {
		t.Fatalf("Check found %d keys, want %d", len(got), keys)
	}
}

// TestShortSiblingChainIsAnError: a bucket whose sibling chain ends
// before the bucket a hash's meta word names (a corrupt image) fails
// every point op routed through it with errChainShort, and an owned put
// refused there returns its block to the allocator. Nothing panics.
func TestShortSiblingChainIsAnError(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 2)
	h := e.tab.NewHandle()
	const n = 20
	for k := uint64(1); k <= n; k++ {
		if err := h.Insert(k, k); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	// Cut the first bucket's chain: a reopened table routes every hash
	// from it, so each key its splits moved away now walks off the end.
	e.reopen(t)
	first := nvram.Offset(e.rawLoad(e.roots.Base))
	e.dev.Store(first+bucketSibOff, 0)
	h = e.tab.NewHandle()
	moved := func(k uint64) bool { return strayBits(mix64(k), e.rawLoad(first+bucketMetaOff)) != 0 }
	fresh := uint64(n)
	cut := 0
	for k := uint64(1); k <= n; k++ {
		if !moved(k) {
			continue // still in the first bucket
		}
		cut++
		if _, err := h.Get(k); !errors.Is(err, errChainShort) {
			t.Errorf("Get(%d) = %v, want errChainShort", k, err)
		}
		if err := h.Update(k, 1); !errors.Is(err, errChainShort) {
			t.Errorf("Update(%d) = %v, want errChainShort", k, err)
		}
		for fresh++; !moved(fresh); fresh++ {
		}
		if err := h.Insert(fresh, 1); !errors.Is(err, errChainShort) {
			t.Errorf("Insert(%d) = %v, want errChainShort", fresh, err)
		}
		if err := h.Delete(k); !errors.Is(err, errChainShort) {
			t.Errorf("Delete(%d) = %v, want errChainShort", k, err)
		}
		inUse, _ := e.alloc.InUse()
		b, err := e.alloc.NewHandle().Reserve(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.PutOwned(k, b); !errors.Is(err, errChainShort) {
			t.Errorf("PutOwned(%d) = %v, want errChainShort", k, err)
		}
		if after, _ := e.alloc.InUse(); after != inUse {
			t.Errorf("PutOwned(%d) refused: %d blocks in use, want %d", k, after, inUse)
		}
	}
	if cut == 0 {
		t.Fatal("no key was routed past the first bucket")
	}
}
