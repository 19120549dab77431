package pmwcas

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pmwcas/internal/alloc"
	"pmwcas/internal/bwtree"
	"pmwcas/internal/core"
	"pmwcas/internal/index"
)

// ownerOpts gives the Bw-tree tiny pages and the hash table tiny buckets,
// so a few hundred blob operations run their owned writes through
// consolidation, splits and merges, and through bucket splits.
var ownerOpts = IndexOptions{
	BwTree: BwTreeOptions{LeafCapacity: 8, InnerCapacity: 8, ConsolidateAfter: 3, MergeBelow: 3},
	Hash:   HashTableOptions{SlotsPerBucket: 4},
}

// putOwned reserves a value block of size bytes from a and hands it to
// h.PutOwned, with a new block each time the PMwCAS loses its race. It
// returns the block that was published and how many races were lost.
func putOwned(t testing.TB, h index.Owner, ah *alloc.Handle, k, size uint64) (uint64, int) {
	t.Helper()
	for raced := 0; ; raced++ {
		b, err := ah.Reserve(size)
		if err != nil {
			t.Errorf("Reserve: %v", err)
			return 0, raced
		}
		switch err := h.PutOwned(k, b); err {
		case nil:
			return b, raced
		case index.ErrRaced:
		default:
			t.Errorf("PutOwned(%d): %v", k, err)
			return 0, raced
		}
	}
}

// TestOwnerContract holds every persistent index to the index.Owner
// semantics; PutOwned consumes value. PutOwned of an absent key inserts
// the reserved block and frees nothing. Over a present key it replaces
// the value and frees the displaced block, but only once the epoch lets
// it go. DeleteOwned returns what it removed and frees it.
func TestOwnerContract(t *testing.T) {
	for _, name := range blobIndexes {
		t.Run(name, func(t *testing.T) {
			store, err := Create(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			sh := store.Shard(0)
			mint, err := sh.openOwner(name, IndexOptions{})
			if err != nil {
				t.Fatal(err)
			}
			h, reader, ah := mint(1), mint(2), sh.state().alloc.NewHandle()
			// Values are 1 KiB blocks, a class none of these small indexes
			// uses, so its free count tracks exactly the values' lifetimes.
			free := func() uint64 { return sh.state().alloc.FreeBlocks(1024) }
			before := free()
			inUse := func(want uint64, when string) {
				t.Helper()
				for i := 0; i < 3; i++ {
					sh.Epochs().Advance()
					sh.Epochs().Collect()
				}
				if got := before - free(); got != want {
					t.Fatalf("%s: %d value blocks in use, want %d", when, got, want)
				}
			}
			const k = 42

			if _, err := h.DeleteOwned(k); !errors.Is(err, ErrNotFound) {
				t.Fatalf("DeleteOwned(absent) = %v, want ErrNotFound", err)
			}
			a, _ := putOwned(t, h, ah, k, 1024)
			if v, err := h.Get(k); err != nil || v != a {
				t.Fatalf("after the insert, Get = (%#x, %v), want %#x", v, err, a)
			}
			inUse(1, "after the insert")

			var b uint64
			func() {
				g := reader.Guard()
				g.Enter()
				defer g.Exit()
				b, _ = putOwned(t, h, ah, k, 1024)
				inUse(2, "while a reader's guard was held")
			}()
			inUse(1, "after the epoch")
			if v, err := h.Get(k); err != nil || v != b {
				t.Fatalf("after the replace, Get = (%#x, %v), want %#x", v, err, b)
			}

			if v, err := h.DeleteOwned(k); err != nil || v != b {
				t.Fatalf("DeleteOwned = (%#x, %v), want %#x", v, err, b)
			}
			inUse(0, "after DeleteOwned")
			if _, err := h.Get(k); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after DeleteOwned = %v", err)
			}
		})
	}
}

// TestPutOwnedErrorPathsReturnBlock: a PutOwned refused before its
// PMwCAS returns value to the allocator, on every index: a bad key, a
// flagged value (which names no block, so nothing changes), and, on the
// hash table, a bucket split that runs out of memory.
func TestPutOwnedErrorPathsReturnBlock(t *testing.T) {
	for _, name := range blobIndexes {
		t.Run(name, func(t *testing.T) {
			store, err := Create(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			sh := store.Shard(0)
			mint, err := sh.openOwner(name, IndexOptions{})
			if err != nil {
				t.Fatal(err)
			}
			h, a := mint(1), sh.state().alloc
			before := a.FreeBlocks(1024)
			b, err := a.NewHandle().Reserve(1024)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.PutOwned(0, b); err == nil {
				t.Fatal("PutOwned of key 0 succeeded")
			}
			if got := a.FreeBlocks(1024); got != before {
				t.Fatalf("bad key: %d blocks free, want %d", got, before)
			}
			if err := h.PutOwned(7, b|core.DirtyFlag); err == nil {
				t.Fatal("PutOwned of a flagged value succeeded")
			}
			if got := a.FreeBlocks(1024); got != before {
				t.Fatalf("flagged value: %d blocks free, want %d", got, before)
			}
		})
	}
	t.Run("hash-split-oom", func(t *testing.T) {
		// Four 64-byte blocks in all: the table's first bucket, two values
		// that fill it, and the third value, leaving none for the sibling
		// the split that value needs.
		cfg := testConfig()
		cfg.Classes = []SizeClass{{BlockSize: 64, Count: 4}}
		store, err := Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh := store.Shard(0)
		mint, err := sh.openOwner("hash", IndexOptions{Hash: HashTableOptions{SlotsPerBucket: 2}})
		if err != nil {
			t.Fatal(err)
		}
		h, a := mint(1), sh.state().alloc
		ah := a.NewHandle()
		for k := uint64(1); k <= 2; k++ {
			putOwned(t, h, ah, k, 64)
		}
		before := a.FreeBlocks(64)
		b, err := ah.Reserve(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.PutOwned(3, b); !errors.Is(err, alloc.ErrOutOfMemory) {
			t.Fatalf("PutOwned into a full bucket with no memory to split = %v, want ErrOutOfMemory", err)
		}
		if got := a.FreeBlocks(64); got != before {
			t.Fatalf("split out of memory: %d blocks free, want %d", got, before)
		}
	})
}

// TestPutOwnedHotKeys races PutOwned and DeleteOwned over four keys on
// every index, each put handing over a reserved block and reserving a
// new one when its PMwCAS loses the race. Each displaced, removed or
// raced block must be freed exactly once: at the end the value blocks in
// use are the live keys' values, and once those are deleted too the
// audit finds no block leaked or dangling.
func TestPutOwnedHotKeys(t *testing.T) {
	for _, name := range blobIndexes {
		t.Run(name, func(t *testing.T) {
			store, err := Create(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			sh := store.Shard(0)
			mint, err := sh.openOwner(name, ownerOpts)
			if err != nil {
				t.Fatal(err)
			}
			a := sh.state().alloc
			free0 := a.FreeBlocks(1024)
			const goroutines, ops, keys = 4, 2000, 4
			var wg sync.WaitGroup
			var raced atomic.Int64
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					h, ah := mint(int64(g)+1), a.NewHandle()
					rng := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < ops && !t.Failed(); i++ {
						k := uint64(rng.Intn(keys)) + 1
						if rng.Intn(2) == 0 {
							if _, err := h.DeleteOwned(k); err != nil && !errors.Is(err, ErrNotFound) {
								t.Errorf("DeleteOwned(%d): %v", k, err)
							}
							continue
						}
						_, n := putOwned(t, h, ah, k, 1024)
						raced.Add(int64(n))
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			t.Logf("%d puts lost their race and reserved again", raced.Load())
			for i := 0; i < 3; i++ {
				sh.Epochs().Advance()
				sh.Epochs().Collect()
			}
			h := mint(99)
			var live uint64
			for k := uint64(1); k <= keys; k++ {
				if _, err := h.Get(k); err == nil {
					live++
				}
			}
			if inUse := free0 - a.FreeBlocks(1024); inUse != live {
				t.Fatalf("%d value blocks in use, %d live keys", inUse, live)
			}
			for k := uint64(1); k <= keys; k++ {
				if _, err := h.DeleteOwned(k); err != nil && !errors.Is(err, ErrNotFound) {
					t.Fatal(err)
				}
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			crashRecover(t, store)
			if _, err := store.CheckInvariants(CheckOptions{}); err != nil {
				t.Fatalf("CheckInvariants: %v", err)
			}
		})
	}
}

// TestBlobKVNoLeakPerIndex churns 100-byte values through the blob layer
// on every index, then crashes and recovers: the audit fails on any
// record leaked (allocated, unreachable) or dangling (reachable, free).
func TestBlobKVNoLeakPerIndex(t *testing.T) {
	for _, name := range blobIndexes {
		t.Run(name, func(t *testing.T) {
			store, err := Create(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			kv, err := store.Shard(0).OpenBlobKV(name, ownerOpts)
			if err != nil {
				t.Fatal(err)
			}
			h := kv.NewHandle(1)
			const keys, overwrites, deletes = 250, 500, 200
			key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i%keys)) }
			val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 100) }
			want := map[string][]byte{}
			for i := 0; i < keys+overwrites; i++ {
				if err := h.Put(key(i), val(i)); err != nil {
					t.Fatalf("Put %d: %v", i, err)
				}
				want[string(key(i))] = val(i)
			}
			for i := 0; i < deletes; i++ {
				if err := h.Delete(key(i)); err != nil {
					t.Fatalf("Delete %d: %v", i, err)
				}
				delete(want, string(key(i)))
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			if err := store.Crash(); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Recover(); err != nil {
				t.Fatal(err)
			}
			ds, err := store.CheckInvariants(CheckOptions{Blob: true})
			if err != nil {
				t.Fatalf("CheckInvariants: %v", err)
			}
			if len(ds.Blobs) != len(want) {
				t.Fatalf("%d blobs recovered, want %d", len(ds.Blobs), len(want))
			}
			for k, v := range want {
				if !bytes.Equal(ds.Blobs[k], v) {
					t.Fatalf("blob %q = %x, want %x", k, ds.Blobs[k], v)
				}
			}
		})
	}
}

// A shard's blob layer stays on the index it was first opened over, and
// the refusal names both indexes, before and after a restart.
func TestOpenBlobKVIndexMismatch(t *testing.T) {
	store, err := Create(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Shard(0).OpenBlobKV("bwtree", IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		_, err := store.BlobKV()
		if err == nil || !strings.Contains(err.Error(), "bwtree") || !strings.Contains(err.Error(), "skiplist") {
			t.Fatalf("reopening over the skip list: %v, want an error naming bwtree and skiplist", err)
		}
		if _, err := store.Shard(0).OpenBlobKV("bwtree", IndexOptions{}); err != nil {
			t.Fatalf("reopening over the same index: %v", err)
		}
	}
	check()
	store.Crash()
	if _, err := store.Recover(); err != nil {
		t.Fatal(err)
	}
	check()
}

// crashRecover restarts a store from its durable image.
func crashRecover(t *testing.T, store *Store) {
	t.Helper()
	if err := store.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Recover(); err != nil {
		t.Fatal(err)
	}
}

// An index with no blob-layer tag holds word values, so no blob layer
// may open over it, on any index.
func TestOpenBlobKVUntaggedImages(t *testing.T) {
	for _, name := range blobIndexes {
		t.Run(name+"-words", func(t *testing.T) {
			store, err := Create(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			mint, err := store.Shard(0).OpenIndex(name, IndexOptions{})
			if err != nil {
				t.Fatal(err)
			}
			h := mint(1)
			for k := uint64(1); k <= 20; k++ {
				if err := h.Insert(k, 0x6f6c6c6568+k); err != nil { // keycodec-packed words
					t.Fatal(err)
				}
			}
			crashRecover(t, store)
			_, err = store.Shard(0).OpenBlobKV(name, IndexOptions{})
			if err == nil || !strings.Contains(err.Error(), "word values") {
				t.Fatalf("OpenBlobKV over a %s of words = %v, want a refusal", name, err)
			}
			if mint, err = store.Shard(0).OpenIndex(name, IndexOptions{}); err != nil {
				t.Fatal(err)
			}
			if v, err := mint(1).Get(7); err != nil || v != 0x6f6c6c6568+7 {
				t.Fatalf("word index after the refusal: Get = (%#x, %v)", v, err)
			}
		})
	}
}

// A blob layer over a SingleCAS Bw-tree could never free a displaced
// record, so the open fails and leaves the shard free for another index.
func TestOpenBlobKVRefusesSingleCAS(t *testing.T) {
	store, err := Create(Config{Size: 4 << 20, Mode: Volatile, Descriptors: 64})
	if err != nil {
		t.Fatal(err)
	}
	opt := IndexOptions{BwTree: BwTreeOptions{SMO: SMOSingleCAS}}
	if _, err := store.Shard(0).OpenBlobKV("bwtree", opt); !errors.Is(err, bwtree.ErrOwnedSingleCAS) {
		t.Fatalf("OpenBlobKV over a SingleCAS Bw-tree = %v, want ErrOwnedSingleCAS", err)
	}
	if _, err := store.Shard(0).OpenBlobKV("hash", IndexOptions{}); err != nil {
		t.Fatalf("OpenBlobKV(hash) after the refusal: %v", err)
	}
}

// Two first opens racing over different indexes: one wins, the other is
// refused naming both, and the tag names the winner.
func TestOpenBlobKVConcurrentFirstOpens(t *testing.T) {
	for round := 0; round < 50; round++ {
		store, err := Create(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		names := []string{"bwtree", "hash"}
		errs := make([]error, len(names))
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i, name := range names {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, errs[i] = store.Shard(0).OpenBlobKV(name, IndexOptions{})
			}()
		}
		close(start)
		wg.Wait()
		if (errs[0] == nil) == (errs[1] == nil) {
			t.Fatalf("round %d: both or neither open succeeded: %v, %v", round, errs[0], errs[1])
		}
		won := names[0]
		if errs[0] != nil {
			won = names[1]
		}
		if got := blobIndexOn(store.dev.Load(store.shards[0].tagWord)); got != won {
			t.Fatalf("round %d: tag names %s, the %s open won", round, got, won)
		}
	}
}

// exhaustedBwTreeConfig is a store with one size class: 11 blocks of 64
// bytes, the size of a Bw-tree delta and of a blob record for values of
// up to 48 bytes. A fresh Bw-tree takes one for its root page and each
// blob insert two (record and delta), so five inserts fill it exactly.
func exhaustedBwTreeConfig() Config {
	cfg := testConfig()
	cfg.Classes = []SizeClass{{BlockSize: 64, Count: 11}}
	return cfg
}

// The blob layer passes the index's errors through: with the Bw-tree's
// delta class exhausted, a Delete of a present key fails with the
// allocator's error, not NotFound.
func TestBlobKVPassesIndexErrors(t *testing.T) {
	store, err := Create(exhaustedBwTreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	kv, err := store.Shard(0).OpenBlobKV("bwtree", IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := kv.NewHandle(1)
	val := bytes.Repeat([]byte("v"), 40)
	for i := 0; i < 5; i++ {
		if err := h.Put([]byte(fmt.Sprintf("k%d", i)), val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := h.Put([]byte("k5"), val); !errors.Is(err, alloc.ErrOutOfMemory) {
		t.Fatalf("put into a full class = %v, want ErrOutOfMemory", err)
	}
	if err := h.Delete([]byte("k0")); !errors.Is(err, alloc.ErrOutOfMemory) {
		t.Fatalf("Delete with the delta class exhausted = %v, want ErrOutOfMemory", err)
	}
	if v, err := h.Get([]byte("k0")); err != nil || !bytes.Equal(v, val) {
		t.Fatalf("Get = (%q, %v)", v, err)
	}
}

// TestBlobPutBill pins the device bill of a blob PUT by one goroutine on
// every index, for a 64-byte value: a PUT that overwrites a present key
// and one that inserts a fresh key, as totals over 256 PUTs. Loads are
// pinned with the persists because a PUT descends the index once. A skip
// list descent loads each node's key once: when it reloaded the key at
// every level it met the node, and a fresh PUT's promotions each found
// again rather than starting from the insert's find, 256 overwrites
// loaded 11,136 words and 256 fresh PUTs 18,212. When
// the blob layer looked the key up before writing, every PUT paid a
// second descent: 256 overwrites loaded 19,456 words on the skip list,
// 17,440 on the Bw-tree and 7,459 on the hash table, and 256 fresh PUTs
// 28,696, 24,549 and 13,868. Flushes and fences were the same, except
// for one hash overwrite flush: a directory hint path-compressed during
// the setup was flushed by the setup's second descent and is now flushed
// by the first overwrite's. Before a block was filled before its bit was
// set, the record's zeroed lines were flushed and fenced once more, and
// each descriptor-owned node or delta once more again: 256 overwrites
// cost 3,584/1,536 flushes/fences on the skip list, 6,912/2,816 on the
// Bw-tree and 3,970/1,536 on the hash table, and 256 fresh PUTs
// 6,398/2,562, 6,695/2,616 and 5,265/1,684. While the record was
// activated into a staging slot before the PUT's PMwCAS, and the slot
// cleared after it, and each ReserveEntry fenced its own handoff, they
// cost 3,072/1,280, 5,696/1,984 and 3,458/1,280, and 5,355/1,794,
// 5,164/1,756 and 4,503/1,328; a fresh PUT on the skip list or the
// Bw-tree loaded 2 words fewer, since the record rode no descriptor
// entry of its own there (17,700 and 15,967). While a hash split sealed
// its bucket and filled two new children, the hash table's 256
// overwrites loaded 4,883 words and flushed 2,946 lines, and its 256
// fresh PUTs loaded 9,210 words at 3,891/1,253 flushes/fences: a split
// now fills one sibling, and the keys it leaves behind keep their slots
// between ghosts, so an overwrite's scan reaches them later. While the
// hash directory lived in NVRAM, every lookup loaded the depth word and
// its entry, and a doubling flushed and fenced the entries it copied:
// the 256 overwrites cost 5,043/2,945/1,280 loads/flushes/fences and
// the 256 fresh PUTs 8,530/3,333/1,128. While a handoff wrote back
// every line of the block rather than of the reservation, the Bw-tree's
// consolidated pages flushed their whole 1 KiB or 4 KiB block: its 256
// overwrites flushed 4,608 lines and its 256 fresh PUTs 4,553. While
// each descriptor was finalized alone, paying a fence for its header
// and, with victims, a flush per victim's bit and a second fence, where
// an epoch sweep now pays two fences and one flush per bitmap line for
// all the descriptors it finalizes, 256 overwrites cost 2,560/1,280
// flushes/fences on the skip list, 4,256/1,440 on the Bw-tree and
// 2,944/1,280 on the hash table, and 256 fresh PUTs 5,099/1,282,
// 4,334/1,184 and 3,295/1,124. While a full Bw-tree page held 64
// entries, not 61, its 256 fresh PUTs loaded 16,479 words and flushed
// 4,067 lines. While a Bw-tree split posted an index-entry delta to its
// parent, and a descent walked the inner chains those left and loaded
// every base's low and side words, its 256 overwrites loaded 11,872
// words and its 256 fresh PUTs 16,421 at 4,052 flushes: a split now
// writes back a rewritten parent page, not a one-line delta, and no
// parent chain is consolidated every eight deltas, 15 lines more in all.
// While a skip-list overwrite's PMwCAS also compared the node's base next
// word (a liveness guard the value word's delete mark replaced), and
// every skip-list descent started at level 11, not at the tallest tower
// (4 levels here), its 256 overwrites loaded 8,224 words (3 + 8 more per
// PUT) and its 256 fresh PUTs 11,772 (8 more per PUT). While a hash
// update bumped its bucket's version, a meta word on another line than
// most slots, its 256 overwrites flushed 2,697 lines; its 256 fresh PUTs
// loaded 7,849 words and flushed 3,295 lines before a split marked the
// value word of each slot it moves, a wider split PMwCAS.
func TestBlobPutBill(t *testing.T) {
	const keys, puts = 16, 256
	type bill struct{ loads, flushes, fences uint64 }
	for _, c := range []struct {
		index            string
		overwrite, fresh bill
	}{
		{"skiplist", bill{5408, 2313, 786}, bill{9724, 5099, 952}},
		{"bwtree", bill{11360, 3742, 884}, bill{14355, 4067, 884}},
		{"hash", bill{4530, 2313, 786}, bill{8225, 3539, 853}},
	} {
		t.Run(c.index, func(t *testing.T) {
			store, err := Create(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			kv, err := store.Shard(0).OpenBlobKV(c.index, IndexOptions{})
			if err != nil {
				t.Fatal(err)
			}
			h := kv.NewHandle(1)
			val := bytes.Repeat([]byte{'v'}, 64)
			// Each window runs every pending finalizer, so it pays for
			// exactly the descriptors its own PUTs retired.
			window := func(key func(i int) string) bill {
				drain := func() {
					for i := 0; i < 3; i++ {
						store.Epochs().Advance()
						store.Epochs().Collect()
					}
				}
				drain()
				before := store.dev.Stats()
				for i := 0; i < puts; i++ {
					if err := h.Put([]byte(key(i)), val); err != nil {
						t.Fatal(err)
					}
				}
				drain()
				after := store.dev.Stats()
				return bill{after.Loads - before.Loads, after.Flushes - before.Flushes, after.Fences - before.Fences}
			}
			for i := 0; i < keys; i++ {
				if err := h.Put([]byte(fmt.Sprintf("k%02d", i)), val); err != nil {
					t.Fatal(err)
				}
			}
			check := func(what string, got, want bill) {
				if got != want {
					t.Errorf("%d %s = %+v, want %+v", puts, what, got, want)
				}
			}
			check("overwrites", window(func(i int) string { return fmt.Sprintf("k%02d", i%keys) }), c.overwrite)
			check("fresh PUTs", window(func(i int) string { return fmt.Sprintf("f%03d", i) }), c.fresh)
		})
	}
}
