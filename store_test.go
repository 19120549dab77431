package pmwcas

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"pmwcas/internal/nvram"
)

func testConfig() Config {
	return Config{
		Size:        8 << 20,
		Descriptors: 256,
	}
}

func TestStoreQuickstartFlow(t *testing.T) {
	store, err := Create(testConfig())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	h := store.PMwCASHandle()

	a1 := store.RootWord(0)
	a2 := store.RootWord(1)
	d, err := h.AllocateDescriptor(0)
	if err != nil {
		t.Fatalf("AllocateDescriptor: %v", err)
	}
	d.AddWord(a1, 0, 100)
	d.AddWord(a2, 0, 200)
	ok, err := d.Execute()
	if err != nil || !ok {
		t.Fatalf("Execute = (%v, %v)", ok, err)
	}
	if got := h.Read(a1); got != 100 {
		t.Fatalf("Read(a1) = %d", got)
	}
	if got := h.Read(a2); got != 200 {
		t.Fatalf("Read(a2) = %d", got)
	}

	// Durable across a crash.
	if err := store.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if _, err := store.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	h2 := store.PMwCASHandle()
	if got := h2.Read(a1); got != 100 {
		t.Fatalf("Read(a1) after crash = %d", got)
	}
}

func TestStoreBothIndexes(t *testing.T) {
	store, err := Create(testConfig())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	list, err := store.SkipList()
	if err != nil {
		t.Fatalf("SkipList: %v", err)
	}
	tree, err := store.BwTree(BwTreeOptions{})
	if err != nil {
		t.Fatalf("BwTree: %v", err)
	}
	lh := list.NewHandle(1)
	th := tree.NewHandle()
	for k := uint64(1); k <= 500; k++ {
		if err := lh.Insert(k, k*2); err != nil {
			t.Fatalf("list Insert(%d): %v", k, err)
		}
		if err := th.Insert(k, k*3); err != nil {
			t.Fatalf("tree Insert(%d): %v", k, err)
		}
	}

	store.Crash()
	if _, err := store.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	list2, err := store.SkipList()
	if err != nil {
		t.Fatalf("SkipList reopen: %v", err)
	}
	tree2, err := store.BwTree(BwTreeOptions{})
	if err != nil {
		t.Fatalf("BwTree reopen: %v", err)
	}
	lh2 := list2.NewHandle(2)
	th2 := tree2.NewHandle()
	for k := uint64(1); k <= 500; k++ {
		if v, err := lh2.Get(k); err != nil || v != k*2 {
			t.Fatalf("list Get(%d) = (%d, %v)", k, v, err)
		}
		if v, err := th2.Get(k); err != nil || v != k*3 {
			t.Fatalf("tree Get(%d) = (%d, %v)", k, v, err)
		}
	}
}

func TestStoreCheckpointAndOpenFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.img")
	cfg := testConfig()
	store, err := Create(cfg)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	list, _ := store.SkipList()
	lh := list.NewHandle(1)
	for k := uint64(1); k <= 100; k++ {
		lh.Insert(k, k)
	}
	if err := store.Checkpoint(path); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	restored, err := OpenFile(path, cfg)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	list2, err := restored.SkipList()
	if err != nil {
		t.Fatalf("SkipList after restore: %v", err)
	}
	lh2 := list2.NewHandle(2)
	n := 0
	lh2.Scan(1, MaxSkipListKey, func(SkipListEntry) bool { n++; return true })
	if n != 100 {
		t.Fatalf("restored list holds %d keys, want 100", n)
	}
}

// TestStoreVolatileMode: a Volatile store runs on a volatile device, so
// nothing it does writes back or fences — not the PMwCAS protocol, not
// the allocator, not an index's record flushes, not the blob layer —
// whatever the index and whatever structure changes its operations make.
func TestStoreVolatileMode(t *testing.T) {
	create := func(t *testing.T) *Store {
		t.Helper()
		store, err := Create(Config{Size: 8 << 20, Mode: Volatile, Descriptors: 64})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		return store
	}
	noPersistence := func(t *testing.T, store *Store) {
		t.Helper()
		if st := store.Device().Stats(); st.Flushes != 0 || st.Fences != 0 {
			t.Fatalf("volatile store issued %d flushes and %d fences", st.Flushes, st.Fences)
		}
	}
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	const n = 300

	t.Run("refusals", func(t *testing.T) {
		store := create(t)
		if err := store.Crash(); err == nil {
			t.Fatal("Crash on volatile store accepted")
		}
		if _, err := store.Recover(); err == nil {
			t.Fatal("Recover on volatile store accepted")
		}
	})
	t.Run("skiplists", func(t *testing.T) {
		store := create(t)
		list, err := store.SkipList()
		must(t, err)
		lh := list.NewHandle(1)
		for k := uint64(1); k <= n; k++ {
			must(t, lh.Insert(k, k))
		}
		for k := uint64(1); k <= n; k += 2 {
			must(t, lh.Update(k, k+1))
			must(t, lh.Delete(k))
		}
		noPersistence(t, store)
	})
	for _, smo := range []SMOMode{SMOPMwCAS, SMOSingleCAS} {
		t.Run(fmt.Sprintf("bwtree-%v", smo), func(t *testing.T) {
			store := create(t)
			// Leaves of 8 split and consolidate many times over n keys.
			tree, err := store.BwTree(BwTreeOptions{SMO: smo, LeafCapacity: 8, InnerCapacity: 8, ConsolidateAfter: 4})
			must(t, err)
			h := tree.NewHandle()
			for k := uint64(1); k <= n; k++ {
				must(t, h.Insert(k, k))
			}
			for k := uint64(1); k <= n; k += 2 {
				must(t, h.Update(k, k+1))
				must(t, h.Delete(k))
			}
			if st := tree.Stats(h); st.Height < 3 {
				t.Fatalf("tree of %d keys has height %d: no splits to measure", n, st.Height)
			}
			noPersistence(t, store)
			// SMOSingleCAS activates its records into a scratch word of
			// the device's first line, which must not be the layout record.
			_, err = OpenDevice(store.Device(), Config{Size: 8 << 20, Mode: Volatile, Descriptors: 64})
			must(t, err)
		})
	}
	t.Run("hash", func(t *testing.T) {
		store := create(t)
		ht, err := store.HashTable(HashTableOptions{})
		must(t, err)
		hh := ht.NewHandle()
		for k := uint64(1); k <= n; k++ {
			must(t, hh.Insert(k, k))
		}
		for k := uint64(1); k <= n; k += 2 {
			must(t, hh.Update(k, k+1))
			must(t, hh.Delete(k))
		}
		if st := store.Stats(); st.HashSplits == 0 || st.HashDoublings == 0 {
			t.Fatalf("hash table of %d keys: %d splits, %d doublings", n, st.HashSplits, st.HashDoublings)
		}
		noPersistence(t, store)
	})
	t.Run("blob-queue", func(t *testing.T) {
		store := create(t)
		kv, err := store.Shard(0).OpenBlobKV("hash", IndexOptions{})
		must(t, err)
		bh := kv.NewHandle(1)
		for i := 0; i < n; i++ {
			must(t, bh.Put([]byte(fmt.Sprint("key", i)), []byte(fmt.Sprint("value", i))))
		}
		for i := 0; i < n; i += 2 {
			must(t, bh.Put([]byte(fmt.Sprint("key", i)), []byte("replaced")))
			must(t, bh.Delete([]byte(fmt.Sprint("key", i))))
		}
		q, err := store.Queue()
		must(t, err)
		qh := q.NewHandle()
		for v := uint64(1); v <= 50; v++ {
			must(t, qh.Enqueue(v))
		}
		for v := uint64(1); v <= 50; v++ {
			if got, err := qh.Dequeue(); err != nil || got != v {
				t.Fatalf("Dequeue = %d, %v; want %d", got, err, v)
			}
		}
		noPersistence(t, store)
	})
}

func TestStoreRootWordBounds(t *testing.T) {
	store, _ := Create(testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range root slot accepted")
		}
	}()
	store.RootWord(RootWords)
}

func TestStoreAllocFree(t *testing.T) {
	store, _ := Create(testConfig())
	target := store.RootWord(3)
	block, err := store.Alloc(128, target)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	h := store.PMwCASHandle()
	if got := h.Read(target); got != block {
		t.Fatalf("root word = %#x, want %#x", got, block)
	}
	blocks, _ := store.MemoryInUse()
	if blocks != 1 {
		t.Fatalf("MemoryInUse = %d", blocks)
	}
	if err := store.Free(block); err != nil {
		t.Fatalf("Free: %v", err)
	}
}

// TestStoreAllocHasNoHandleBudget: each Store.Alloc takes an allocator
// handle and a PMwCAS handle of its own, neither is rationed, and the
// PMwCAS handle is released, so an application may allocate and free
// through the store any number of times.
func TestStoreAllocHasNoHandleBudget(t *testing.T) {
	store, err := Create(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		block, err := store.Alloc(64, store.RootWord(0))
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		if err := store.Free(block); err != nil {
			t.Fatalf("Free %d: %v", i, err)
		}
	}
}

// TestStoreAllocCrashKeepsOwner crashes at every device op of one
// Store.Alloc that replaces a root word's block. After recovery the root
// word names either the old block or the new one, and that block is
// allocated: allocating until the crashed Alloc's block comes back never
// hands out the block the root word names.
func TestStoreAllocCrashKeepsOwner(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	type crash struct{}
	for step := 1; ; step++ {
		store, err := Create(testConfig())
		must(err)
		root := store.RootWord(0)
		old, err := store.Alloc(128, root)
		must(err)
		ops := 0
		store.Device().SetHook(func(string, Offset) {
			if ops++; ops == step {
				panic(crash{})
			}
		})
		crashed := func() (crashed bool) {
			defer func() {
				if r := recover(); r != nil {
					if r != (crash{}) {
						panic(r)
					}
					crashed = true
				}
			}()
			_, err := store.Alloc(128, root)
			must(err)
			return false
		}()
		store.Device().SetHook(nil)
		if !crashed {
			if step < 10 {
				t.Fatalf("Alloc finished after %d device ops", step-1)
			}
			return
		}
		must(store.Crash())
		_, err = store.Recover()
		must(err)
		named := store.PMwCASHandle().Read(root)
		if !store.shards[0].alloc.Allocated(named) {
			t.Fatalf("step %d: root word names %#x (old block %#x), which is free", step, named, old)
		}
		// The crashed Alloc's block is the lowest free one of its class,
		// so it comes back within a few allocations if the crash freed it.
		for i := 0; i < 4; i++ {
			b, err := store.Alloc(128, store.RootWord(1))
			must(err)
			if b == named {
				t.Fatalf("step %d: block %#x the root word names was allocated again", step, b)
			}
		}
	}
}

func TestOpenDeviceSizeMismatch(t *testing.T) {
	store, _ := Create(Config{Size: 4 << 20, Descriptors: 64})
	if _, err := OpenDevice(store.Device(), Config{Size: 64 << 20}); err == nil {
		t.Fatal("undersized device accepted")
	}
}

// TestOpenRefusesOtherLayout: a snapshot reopened with a Config that
// lays the device out differently fails with an error naming the
// mismatch, instead of opening regions at the wrong offsets and reading
// a store that holds nothing (or garbage).
func TestOpenRefusesOtherLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.img")
	cfg := Config{Size: 2 << 20, Descriptors: 64}
	store, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kv, err := store.BlobKV()
	if err != nil {
		t.Fatal(err)
	}
	h := kv.NewHandle(1)
	for i := 0; i < 100; i++ {
		if err := h.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Checkpoint(path); err != nil {
		t.Fatal(err)
	}

	other := func(f func(*Config)) Config { c := cfg; f(&c); return c }
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{other(func(c *Config) { c.Descriptors = 128 }), "Descriptors 64"},
		{other(func(c *Config) { c.Shards = 2 }), "Shards 1"},
		{other(func(c *Config) { c.Classes = []SizeClass{{BlockSize: 64, Count: 1024}} }), "Classes hash"},
	} {
		if _, err := OpenFile(path, tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("OpenFile with %s: %v, want an error naming %q", tc.want, err, tc.want)
		}
	}
	if _, err := OpenDevice(store.Device(), other(func(c *Config) { c.Size = 1 << 20 })); err == nil ||
		!strings.Contains(err.Error(), "Size 2097152") {
		t.Errorf("OpenDevice with a smaller Size: %v, want an error naming Size", err)
	}
	if _, err := OpenDevice(nvram.New(cfg.Size), cfg); err == nil || !strings.Contains(err.Error(), "Size 0") {
		t.Errorf("OpenDevice on a blank device: %v, want an error naming Size 0", err)
	}

	reopened, err := OpenFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.CheckInvariants(CheckOptions{Blob: true}); err != nil {
		t.Fatal(err)
	}
	if blocks, _ := reopened.MemoryInUse(); blocks == 0 {
		t.Fatal("the reopened store holds no blocks")
	}
}

// TestOpenWithoutGeometry: an image describes itself. OpenFile and
// OpenDevice given Config{} read Size, Shards and Descriptors from the
// layout record and derive the default classes from them, so a two-shard
// 8 MiB image with 256 descriptors a shard reopens with every key; a
// blank device names the missing record, and OpenFile refuses a volatile
// Mode, whose device would skip recovery.
func TestOpenWithoutGeometry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.img")
	st, err := Create(Config{Size: 8 << 20, Shards: 2, Descriptors: 256})
	if err != nil {
		t.Fatal(err)
	}
	mint, err := st.OpenIndex("bwtree", IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := mint(1)
	const n = 200
	for k := uint64(1); k <= n; k++ {
		if err := h.Insert(k, 10*k); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(path); err != nil {
		t.Fatal(err)
	}

	fromFile, err := OpenFile(path, Config{})
	if err != nil {
		t.Fatalf("OpenFile with Config{}: %v", err)
	}
	fromDevice, err := OpenDevice(st.Device().CloneCrashed(), Config{})
	if err != nil {
		t.Fatalf("OpenDevice with Config{}: %v", err)
	}
	for name, re := range map[string]*Store{"OpenFile": fromFile, "OpenDevice": fromDevice} {
		if re.ShardCount() != 2 || re.Device().Size() != 8<<20 {
			t.Errorf("%s: %d shards on %d bytes, want the image's 2 on %d", name, re.ShardCount(), re.Device().Size(), 8<<20)
		}
		ds, err := re.CheckInvariants(CheckOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ds.BwTree) != n {
			t.Errorf("%s: the reopened image holds %d Bw-tree keys, want %d", name, len(ds.BwTree), n)
		}
	}

	if _, err := OpenDevice(nvram.New(1<<20), Config{}); err == nil || !strings.Contains(err.Error(), "no layout record") {
		t.Errorf("OpenDevice on a blank device: %v, want an error naming the missing layout record", err)
	}
	if _, err := OpenFile(path, Config{Mode: Volatile}); err == nil || !strings.Contains(err.Error(), "Mode") {
		t.Errorf("OpenFile with Mode Volatile: %v, want an error naming Mode", err)
	}
}

// TestOpenFileKeepsDeviceSettings: OpenFile builds its device from the
// same Config settings as Create, so a restored store evicts lines the
// protocol never flushed when EvictEvery asks for it.
func TestOpenFileKeepsDeviceSettings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.img")
	st, err := Create(Config{Size: 1 << 20, Descriptors: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path, Config{EvictEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the device's upper half, never flushing it: only eviction
	// can carry a word of it into the persisted image.
	dev := re.Device()
	persisted := 0
	for off := dev.Size() / 2; off < dev.Size(); off += nvram.WordSize {
		dev.Store(off, 7)
	}
	for off := dev.Size() / 2; off < dev.Size(); off += nvram.WordSize {
		if dev.PersistedLoad(off) == 7 {
			persisted++
		}
	}
	if persisted == 0 {
		t.Fatal("no unflushed word reached the persisted image: OpenFile dropped EvictEvery")
	}
}

// TestAuditFollowsBlobTag: CheckInvariants validates blob records exactly
// on the shards whose tag names a blob layer, whatever CheckOptions.Blob
// says. A word skip list audits clean with Blob set, a blob store audits
// clean without it, and a blob-layer value that points at an unallocated
// block is still caught without it.
func TestAuditFollowsBlobTag(t *testing.T) {
	recovered := func(t *testing.T, st *Store) {
		t.Helper()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.Crash(); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recover(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("word skip list, Blob set", func(t *testing.T) {
		st, err := Create(testRecoverConfig())
		if err != nil {
			t.Fatal(err)
		}
		list, err := st.SkipList()
		if err != nil {
			t.Fatal(err)
		}
		h := list.NewHandle(1)
		for k := uint64(1); k <= 20; k++ {
			if err := h.Insert(k, 3); err != nil {
				t.Fatal(err)
			}
		}
		recovered(t, st)
		ds, err := st.CheckInvariants(CheckOptions{Blob: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.SkipList) != 20 || ds.Blobs != nil {
			t.Fatalf("audit found %d skip-list keys and %d blobs, want 20 and none", len(ds.SkipList), len(ds.Blobs))
		}
	})

	// blobStore holds 20 blob values on its skip list.
	blobStore := func(t *testing.T) *Store {
		st, err := Create(testRecoverConfig())
		if err != nil {
			t.Fatal(err)
		}
		kv, err := st.BlobKV()
		if err != nil {
			t.Fatal(err)
		}
		h := kv.NewHandle(1)
		for i := 0; i < 20; i++ {
			if err := h.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("a value")); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}

	t.Run("blob store, Blob unset", func(t *testing.T) {
		st := blobStore(t)
		recovered(t, st)
		ds, err := st.CheckInvariants(CheckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.Blobs) != 20 || len(ds.SkipList) != 0 {
			t.Fatalf("audit found %d blobs and %d word skip-list keys, want 20 and none", len(ds.Blobs), len(ds.SkipList))
		}
		if string(ds.Blobs["k07"]) != "a value" {
			t.Fatalf("blob k07 = %q, want %q", ds.Blobs["k07"], "a value")
		}
	})

	t.Run("planted record in a free block", func(t *testing.T) {
		st := blobStore(t)
		list, err := st.SkipList()
		if err != nil {
			t.Fatal(err)
		}
		h := list.NewHandle(1)
		var first IndexEntry
		h.Scan(1, MaxSkipListKey, func(e SkipListEntry) bool { first = e; return false })
		// A copy of the first record in a block that is then freed: only
		// the allocator bitmap can tell it from the real one. The record
		// is its length, its key and one data word: its filler wrote
		// nothing past them.
		blk, err := st.Alloc(64, st.RootWord(0))
		if err != nil {
			t.Fatal(err)
		}
		dev := st.Device()
		for off := Offset(0); off < 3*nvram.WordSize; off += nvram.WordSize {
			dev.Store(blk+off, dev.Load(Offset(first.Value)+off))
		}
		dev.FlushAll()
		if err := st.Free(blk); err != nil {
			t.Fatal(err)
		}
		if err := h.Update(first.Key, uint64(blk)); err != nil {
			t.Fatal(err)
		}
		recovered(t, st)
		want := fmt.Sprintf("dangling: block %#x", blk)
		if _, err := st.CheckInvariants(CheckOptions{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("CheckInvariants: %v, want an error naming %q", err, want)
		}
	})
}

func TestStoreBlobKV(t *testing.T) {
	store, err := Create(testConfig())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	kv, err := store.BlobKV()
	if err != nil {
		t.Fatalf("BlobKV: %v", err)
	}
	h := kv.NewHandle(1)
	if err := h.Put([]byte("cfg/a"), []byte("first value")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := h.Put([]byte("cfg/b"), []byte("second")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := h.Put([]byte("cfg/a"), []byte("replaced")); err != nil {
		t.Fatalf("replace: %v", err)
	}

	store.Crash()
	if _, err := store.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	kv2, err := store.BlobKV()
	if err != nil {
		t.Fatalf("BlobKV reopen: %v", err)
	}
	h2 := kv2.NewHandle(1)
	v, err := h2.Get([]byte("cfg/a"))
	if err != nil || string(v) != "replaced" {
		t.Fatalf("Get after crash = (%q, %v)", v, err)
	}
	n := 0
	h2.ScanPrefix([]byte("cfg/"), func(k, v []byte) bool { n++; return true })
	if n != 2 {
		t.Fatalf("prefix scan found %d keys", n)
	}
	if _, err := h2.Get([]byte("missing")); !errors.Is(err, ErrBlobNotFound) {
		t.Fatalf("sentinel mismatch: %v", err)
	}
}

func TestKeyCodecExports(t *testing.T) {
	k := MustEncodeKey("abc")
	s, err := DecodeKeyString(k)
	if err != nil || s != "abc" {
		t.Fatalf("round trip = (%q, %v)", s, err)
	}
	lo, hi, err := KeyPrefixRange([]byte("ab"))
	if err != nil || lo > k || hi < k {
		t.Fatalf("prefix range (%d, %d, %v) misses %d", lo, hi, err, k)
	}
	if _, err := EncodeKey(make([]byte, MaxEncodedKeyLen+1)); err == nil {
		t.Fatal("oversize key accepted")
	}
}

func TestErrSentinelsExported(t *testing.T) {
	store, _ := Create(testConfig())
	list, _ := store.SkipList()
	lh := list.NewHandle(1)
	if _, err := lh.Get(7); !errors.Is(err, ErrSkipListNotFound) {
		t.Fatalf("sentinel mismatch: %v", err)
	}
	tree, _ := store.BwTree(BwTreeOptions{})
	th := tree.NewHandle()
	if _, err := th.Get(7); !errors.Is(err, ErrBwTreeNotFound) {
		t.Fatalf("sentinel mismatch: %v", err)
	}
}

func TestStoreQueue(t *testing.T) {
	store, err := Create(testConfig())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	q, err := store.Queue()
	if err != nil {
		t.Fatalf("Queue: %v", err)
	}
	h := q.NewHandle()
	for v := uint64(1); v <= 10; v++ {
		if err := h.Enqueue(v); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	// The queue coexists with the indexes on the same store.
	list, _ := store.SkipList()
	list.NewHandle(1).Insert(99, 99)

	store.Crash()
	if _, err := store.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	q2, err := store.Queue()
	if err != nil {
		t.Fatalf("Queue reopen: %v", err)
	}
	h2 := q2.NewHandle()
	for v := uint64(1); v <= 10; v++ {
		got, err := h2.Dequeue()
		if err != nil || got != v {
			t.Fatalf("Dequeue = (%d, %v), want %d", got, err, v)
		}
	}
	if _, err := h2.Dequeue(); !errors.Is(err, ErrQueueEmpty) {
		t.Fatalf("sentinel: %v", err)
	}
}
