package blobkv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/index"
	"pmwcas/internal/keycodec"
	"pmwcas/internal/nvram"
	"pmwcas/internal/skiplist"
)

type kenv struct {
	dev     *nvram.Device
	pool    *core.Pool
	alloc   *alloc.Allocator
	list    *skiplist.List
	kv      *Store
	poolReg nvram.Region
	aReg    nvram.Region
	roots   nvram.Region
	spec    []alloc.Class
}

const kvDescs = 128

func kvSpec() []alloc.Class {
	return []alloc.Class{
		{BlockSize: 64, Count: 2048},
		{BlockSize: 256, Count: 512},
		{BlockSize: 1024, Count: 128},
		{BlockSize: 4096, Count: 64},
	}
}

func newKVEnv(t testing.TB) *kenv { return newKVEnvSpec(t, kvSpec()) }

func newKVEnvSpec(t testing.TB, spec []alloc.Class) *kenv {
	t.Helper()
	e := &kenv{spec: spec}
	poolBytes := core.PoolSize(kvDescs, skiplist.MinDescriptorWords)
	aBytes := alloc.MetaSize(e.spec, 4)
	e.dev = nvram.New(poolBytes + aBytes + 1<<14)
	l := nvram.NewLayout(e.dev)
	e.poolReg = l.Carve(poolBytes)
	e.aReg = l.Carve(aBytes)
	e.roots = l.Carve(nvram.LineBytes)
	e.build(t, false)
	return e
}

// build (re)assembles every layer; recover selects the restart path.
func (e *kenv) build(t testing.TB, recover bool) {
	t.Helper()
	var err error
	e.alloc, err = alloc.New(e.dev, e.aReg, e.spec, 4)
	if err != nil {
		t.Fatalf("alloc.New: %v", err)
	}
	e.pool, err = core.NewPool(core.Config{
		Device: e.dev, Region: e.poolReg,
		DescriptorCount: kvDescs, WordsPerDescriptor: skiplist.MinDescriptorWords,
		Mode: core.Persistent, Allocator: e.alloc,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	if recover {
		if _, err := e.pool.Recover(); err != nil {
			t.Fatalf("pool.Recover: %v", err)
		}
	}
	e.list, err = skiplist.New(skiplist.Config{Pool: e.pool, Allocator: e.alloc, Roots: e.roots})
	if err != nil {
		t.Fatalf("skiplist.New: %v", err)
	}
	e.kv, err = Open(Config{
		Index:     func(seed int64) index.Owner { return e.list.NewHandle(seed) },
		Allocator: e.alloc, Device: e.dev,
	})
	if err != nil {
		t.Fatalf("blobkv.Open: %v", err)
	}
}

func (e *kenv) reopen(t testing.TB) {
	t.Helper()
	e.dev.SetHook(nil)
	e.dev.Crash()
	e.build(t, true)
}

// TestOverwritePutBill pins the persist bill of a blob overwrite by one
// goroutine, with a 64-byte value whose 80-byte record takes a 128-byte
// block as in a Store: 2 flushes as the filled record is staged in the
// overwrite's descriptor (its two lines), 6 flushes and 3 fences for the
// 1-word PMwCAS on the node's value word that hands it over (the entries, fenced,
// the header, fenced, the record's bitmap, fenced, then the install's
// three), and 1 flush when the descriptor is finalized (its header). The
// epoch sweeps finalize the 256 descriptors in 9 runs, each of which
// pays 1 flush for the displaced records' one bitmap line and 2 fences
// (the bit clears', then the headers'). None of them finds its line
// clean. While each descriptor was finalized alone, its finalize cost 2
// flushes and 2 fences (the displaced record's bitmap, fenced, then the
// header), 10 and 5 in all. When the record was first activated into a
// staging slot, which was cleared after the PMwCAS, the bill was 12
// flushes and 5 fences. The
// overwrite loads 21.125 words, one find down the skip list among them,
// which starts at the tallest tower's top level and loads each node's key
// once. When the PMwCAS also compared the node's base next word as a
// liveness guard, the overwrite loaded 3 words more; when every find
// started at level 11, 8 more (the tallest tower here is 4 levels): 32.125
// with both. When the find reloaded a node's key at every level it met
// the node, the overwrite loaded 43.5; when Put looked the key up before
// writing, 76: a second find.
func TestOverwritePutBill(t *testing.T) {
	e := newKVEnvSpec(t, []alloc.Class{
		{BlockSize: 64, Count: 256},
		{BlockSize: 128, Count: 256},
		{BlockSize: 256, Count: 16}, // list sentinels
	})
	h := e.kv.NewHandle(1)
	const keys, puts, runs = 16, 256, 9
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i%keys)) }
	val := bytes.Repeat([]byte{'v'}, 64)
	// Run every pending finalizer, so that each window pays for exactly
	// the descriptors its own puts retired.
	drain := func() {
		for i := 0; i < 3; i++ {
			e.pool.Epochs().Advance()
			e.pool.Epochs().Collect()
		}
	}
	for i := 0; i < keys; i++ {
		if err := h.Put(key(i), val); err != nil {
			t.Fatal(err)
		}
	}
	drain()
	before := e.dev.Stats()
	for i := 0; i < puts; i++ {
		if err := h.Put(key(i), val); err != nil {
			t.Fatal(err)
		}
	}
	drain()
	after := e.dev.Stats()
	for _, c := range []struct {
		name string
		got  uint64
		want float64
	}{
		{"flushes", after.Flushes - before.Flushes, 9 + runs/float64(puts)},
		{"fences", after.Fences - before.Fences, 3 + 2*runs/float64(puts)},
		{"clean flushes", after.CleanFlushes - before.CleanFlushes, 0},
		{"loads", after.Loads - before.Loads, 21.125},
	} {
		if float64(c.got) != c.want*puts {
			t.Errorf("%s per overwrite = %.2f, want %.2f", c.name, float64(c.got)/puts, c.want)
		}
	}
}

func TestPutGetDelete(t *testing.T) {
	e := newKVEnv(t)
	h := e.kv.NewHandle(1)

	if err := h.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, err := h.Get([]byte("hello"))
	if err != nil || string(v) != "world" {
		t.Fatalf("Get = (%q, %v)", v, err)
	}
	if err := h.Put([]byte("hello"), []byte("again, with a much longer value this time")); err != nil {
		t.Fatalf("replace Put: %v", err)
	}
	v, _ = h.Get([]byte("hello"))
	if string(v) != "again, with a much longer value this time" {
		t.Fatalf("replaced value = %q", v)
	}
	if err := h.Delete([]byte("hello")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := h.Get([]byte("hello")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete: %v", err)
	}
	if err := h.Delete([]byte("hello")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Delete: %v", err)
	}
}

func TestEmptyAndBinaryValues(t *testing.T) {
	e := newKVEnv(t)
	h := e.kv.NewHandle(1)
	if err := h.Put([]byte("empty"), nil); err != nil {
		t.Fatalf("Put(nil): %v", err)
	}
	v, err := h.Get([]byte("empty"))
	if err != nil || len(v) != 0 {
		t.Fatalf("Get(empty) = (%v, %v)", v, err)
	}
	blob := make([]byte, 333)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	if err := h.Put([]byte("bin"), blob); err != nil {
		t.Fatalf("Put(bin): %v", err)
	}
	got, _ := h.Get([]byte("bin"))
	if !bytes.Equal(got, blob) {
		t.Fatal("binary value corrupted")
	}
}

func TestValidation(t *testing.T) {
	e := newKVEnv(t)
	h := e.kv.NewHandle(1)
	if err := h.Put([]byte("toolongkey"), nil); !errors.Is(err, keycodec.ErrTooLong) {
		t.Fatalf("long key: %v", err)
	}
	if err := h.Put([]byte("k"), make([]byte, MaxValueLen+1)); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("huge value: %v", err)
	}
	if _, err := h.Get([]byte("waytoolong")); !errors.Is(err, keycodec.ErrTooLong) {
		t.Fatalf("Get(long key): %v", err)
	}
}

func TestScansAndPrefix(t *testing.T) {
	e := newKVEnv(t)
	h := e.kv.NewHandle(1)
	pairs := map[string]string{
		"app/a": "1", "app/b": "2", "app/c": "3",
		"db/x": "10", "db/y": "11",
		"zz": "99",
	}
	for k, v := range pairs {
		if err := h.Put([]byte(k), []byte(v)); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	var keys []string
	h.ScanPrefix([]byte("app/"), func(k, v []byte) bool {
		keys = append(keys, string(k))
		if pairs[string(k)] != string(v) {
			t.Fatalf("prefix scan value mismatch for %s: %q", k, v)
		}
		return true
	})
	want := []string{"app/a", "app/b", "app/c"}
	if len(keys) != len(want) {
		t.Fatalf("prefix keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("prefix keys = %v", keys)
		}
	}
	// Bounded scan.
	n := 0
	h.Scan([]byte("db/x"), []byte("db/y"), func(k, v []byte) bool { n++; return true })
	if n != 2 {
		t.Fatalf("range scan found %d", n)
	}
	if n := count(t, h); n != len(pairs) {
		t.Fatalf("full scan found %d keys, want %d", n, len(pairs))
	}
}

func TestMemoryReclaimedOnReplaceAndDelete(t *testing.T) {
	e := newKVEnv(t)
	h := e.kv.NewHandle(1)
	base, _ := e.alloc.InUse() // sentinels
	// Churn the same key with many values, then delete.
	for i := 0; i < 200; i++ {
		if err := h.Put([]byte("churn"), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if err := h.Delete([]byte("churn")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	e.pool.Epochs().Advance()
	e.pool.Epochs().Collect()
	blocks, _ := e.alloc.InUse()
	if blocks != base {
		t.Fatalf("%d blocks live after churn+delete, want %d: records leaked", blocks, base)
	}
}

func TestPersistAcrossRestart(t *testing.T) {
	e := newKVEnv(t)
	h := e.kv.NewHandle(1)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%04d", i)
		if err := h.Put([]byte(k), []byte(fmt.Sprintf("value-%d", i*i))); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	e.reopen(t)
	h2 := e.kv.NewHandle(1)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%04d", i)
		v, err := h2.Get([]byte(k))
		if err != nil || string(v) != fmt.Sprintf("value-%d", i*i) {
			t.Fatalf("Get(%s) after restart = (%q, %v)", k, v, err)
		}
	}
}

// Property: blobkv behaves exactly like a map[string][]byte.
func TestQuickAgainstReferenceMap(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		e := newKVEnv(t)
		h := e.kv.NewHandle(seed)
		ref := map[string][]byte{}
		rng := rand.New(rand.NewSource(seed))
		keys := []string{"a", "bb", "ccc", "dddd", "e", "ff", "g7"}
		for _, op := range ops {
			k := keys[rng.Intn(len(keys))]
			switch op % 3 {
			case 0:
				v := make([]byte, rng.Intn(64))
				rng.Read(v)
				if h.Put([]byte(k), v) != nil {
					return false
				}
				ref[k] = v
			case 1:
				err := h.Delete([]byte(k))
				if _, ok := ref[k]; ok {
					if err != nil {
						return false
					}
					delete(ref, k)
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			case 2:
				v, err := h.Get([]byte(k))
				want, ok := ref[k]
				if ok != (err == nil) {
					return false
				}
				if ok && !bytes.Equal(v, want) {
					return false
				}
			}
		}
		return count(t, h) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	e := newKVEnv(t)
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := e.kv.NewHandle(int64(w))
			for i := 0; i < 100; i++ {
				k := []byte(fmt.Sprintf("w%d-%03d", w, i))
				if err := h.Put(k, bytes.Repeat([]byte{byte(w)}, i%50)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	h := e.kv.NewHandle(99)
	for w := 0; w < writers; w++ {
		for i := 0; i < 100; i++ {
			k := []byte(fmt.Sprintf("w%d-%03d", w, i))
			v, err := h.Get(k)
			if err != nil || len(v) != i%50 {
				t.Fatalf("Get(%s) = (%d bytes, %v)", k, len(v), err)
			}
		}
	}
}

// Contended upserts on one key: the final value must be exactly one
// writer's value, and all displaced records must be reclaimed.
func TestConcurrentSameKeyChurn(t *testing.T) {
	e := newKVEnv(t)
	base, _ := e.alloc.InUse()
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := e.kv.NewHandle(int64(w))
			for i := 0; i < 100; i++ {
				if err := h.Put([]byte("hot"), []byte{byte(w), byte(i)}); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	h := e.kv.NewHandle(99)
	v, err := h.Get([]byte("hot"))
	if err != nil || len(v) != 2 {
		t.Fatalf("Get(hot) = (%v, %v)", v, err)
	}
	if err := h.Delete([]byte("hot")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	e.pool.Epochs().Drain()
	blocks, _ := e.alloc.InUse()
	if blocks != base {
		t.Fatalf("%d blocks live after churn, want %d", blocks, base)
	}
}

type crashPanic struct{}

// TestCrashSweepPut injects a crash at every device step of a Put that
// replaces an existing value, and verifies after recovery: the key maps
// to exactly the old or the new value, and not one record block is
// leaked or double-owned.
func TestCrashSweepPut(t *testing.T) {
	oldVal := []byte("the-old-value")
	newVal := []byte("the-new-value-somewhat-longer")
	for k := 1; ; k++ {
		e := newKVEnv(t)
		h := e.kv.NewHandle(1)
		if err := h.Put([]byte("key"), oldVal); err != nil {
			t.Fatalf("seed Put: %v", err)
		}
		e.pool.Epochs().Advance()
		e.pool.Epochs().Collect()
		liveBefore, _ := e.alloc.InUse()

		step := 0
		completed := func() (completed bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(crashPanic); !ok {
						panic(r)
					}
					completed = false
				}
			}()
			e.dev.SetHook(func(op string, off nvram.Offset) {
				step++
				if step == k {
					panic(crashPanic{})
				}
			})
			defer e.dev.SetHook(nil)
			if err := h.Put([]byte("key"), newVal); err != nil {
				t.Fatalf("Put: %v", err)
			}
			e.pool.Epochs().Advance()
			e.pool.Epochs().Collect()
			return true
		}()

		e.reopen(t)
		h2 := e.kv.NewHandle(1)
		v, err := h2.Get([]byte("key"))
		if err != nil {
			t.Fatalf("crash at %d: Get: %v", k, err)
		}
		if !bytes.Equal(v, oldVal) && !bytes.Equal(v, newVal) {
			t.Fatalf("crash at %d: torn value %q", k, v)
		}
		// Exactly one record + one node live, regardless of which value
		// won: no leaked old/new record, no double ownership.
		blocks, _ := e.alloc.InUse()
		if blocks != liveBefore {
			t.Fatalf("crash at %d: %d blocks live, want %d (value=%q)",
				k, blocks, liveBefore, v)
		}
		if completed {
			t.Logf("put sweep covered %d crash points", k-1)
			return
		}
	}
}

// TestCrashSweepDelete is the same sweep over a Delete.
func TestCrashSweepDelete(t *testing.T) {
	for k := 1; ; k++ {
		e := newKVEnv(t)
		h := e.kv.NewHandle(1)
		if err := h.Put([]byte("a"), []byte("keepme")); err != nil {
			t.Fatalf("seed: %v", err)
		}
		if err := h.Put([]byte("b"), []byte("deleteme")); err != nil {
			t.Fatalf("seed: %v", err)
		}
		e.pool.Epochs().Advance()
		e.pool.Epochs().Collect()
		liveBefore, _ := e.alloc.InUse()

		step := 0
		completed := func() (completed bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(crashPanic); !ok {
						panic(r)
					}
					completed = false
				}
			}()
			e.dev.SetHook(func(op string, off nvram.Offset) {
				step++
				if step == k {
					panic(crashPanic{})
				}
			})
			defer e.dev.SetHook(nil)
			if err := h.Delete([]byte("b")); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			e.pool.Epochs().Advance()
			e.pool.Epochs().Collect()
			return true
		}()

		e.reopen(t)
		h2 := e.kv.NewHandle(1)
		if v, err := h2.Get([]byte("a")); err != nil || string(v) != "keepme" {
			t.Fatalf("crash at %d: bystander key broken: (%q, %v)", k, v, err)
		}
		_, err := h2.Get([]byte("b"))
		present := err == nil
		blocks, _ := e.alloc.InUse()
		want := liveBefore
		if !present {
			want -= 2 // node + record both reclaimed
		}
		if blocks != want {
			t.Fatalf("crash at %d: %d blocks live, want %d (b present=%v)",
				k, blocks, want, present)
		}
		if completed {
			t.Logf("delete sweep covered %d crash points", k-1)
			return
		}
	}
}

// Crash while a record is written but never handed to a descriptor: it
// was only reserved, so the restart finds it free.
func TestStagedOrphanFreedOnOpen(t *testing.T) {
	e := newKVEnv(t)
	h := e.kv.NewHandle(1)
	base, _ := e.alloc.InUse()
	if _, err := h.writeRecord(keyFor(t, "orphan"), []byte("never linked")); err != nil {
		t.Fatalf("writeRecord: %v", err)
	}
	e.reopen(t)
	blocks, _ := e.alloc.InUse()
	if blocks != base {
		t.Fatalf("orphan record leaked: %d blocks, want %d", blocks, base)
	}
}

// audit is the store's audit of a blob layer on a skip list, run on a
// crashed image with every descriptor Free: a's bitmaps against the
// list's blocks and the records Check reaches.
func (e *kenv) audit(a *alloc.Allocator) error {
	blocks, entries, err := skiplist.Check(e.dev, e.roots)
	if err != nil {
		return err
	}
	recs, _, err := Check(e.dev, a, entries)
	if err != nil {
		return err
	}
	return a.CheckInUse(append(blocks, recs...))
}

// A record an index entry names must have its bit set: the audit still
// reports a clear one as dangling.
func TestIndexedRecordWithClearBitIsDangling(t *testing.T) {
	e := newKVEnv(t)
	h := e.kv.NewHandle(1)
	if err := h.Put([]byte("k"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	e.pool.Epochs().Drain()
	rec, err := h.ix.Get(keyFor(t, "k"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.alloc.Free(nvram.Offset(rec)); err != nil {
		t.Fatal(err)
	}
	if err := e.audit(e.alloc); err == nil || !strings.Contains(err.Error(), "dangling") {
		t.Fatalf("audit = %v, want a dangling record", err)
	}
}

// TestScanAllocBudget: Scan and ScanPrefix decode each key and copy each
// record into one buffer the handle reuses, so a 100-entry scan allocates
// what the scan itself needs (its index visitor and the decode error
// that visitor can set), not several times per entry. Decoding each key
// into a new slice and each record into a growing nil slice cost 502
// allocations here.
func TestScanAllocBudget(t *testing.T) {
	if nvram.SanitizerEnabled {
		t.Skip("psan's shadow state allocates on every device op")
	}
	e := newKVEnv(t)
	h := e.kv.NewHandle(1)
	val := bytes.Repeat([]byte{'v'}, 64)
	for i := 0; i < 100; i++ {
		if err := h.Put([]byte(fmt.Sprintf("k%03d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	visit := func(k, v []byte) bool {
		if len(k) == 4 && bytes.Equal(v, val) {
			n++
		}
		return true
	}
	for _, c := range []struct {
		name string
		scan func() error
	}{
		{"Scan", func() error { return h.Scan([]byte("k"), []byte("l"), visit) }},
		{"ScanPrefix", func() error { return h.ScanPrefix([]byte("k"), visit) }},
	} {
		got := testing.AllocsPerRun(50, func() {
			n = 0
			if err := c.scan(); err != nil {
				t.Fatal(err)
			}
		})
		if n != 100 {
			t.Fatalf("%s visited %d intact entries, want 100", c.name, n)
		}
		if got > 2 {
			t.Errorf("%s of 100 entries = %v allocations, budget 2", c.name, got)
		}
	}
}

// count scans the whole keyspace and returns how many keys it holds.
func count(t testing.TB, h *Handle) int {
	t.Helper()
	n := 0
	if err := h.ScanPrefix(nil, func(_, _ []byte) bool { n++; return true }); err != nil {
		t.Fatalf("ScanPrefix: %v", err)
	}
	return n
}

func keyFor(t *testing.T, s string) uint64 {
	t.Helper()
	k, err := keycodec.EncodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// A record's fill persists with the entries of the descriptor it is
// staged in, before its bit is set, so a published record whose key word
// is zero never had its fill persisted: the audit reports the image
// corrupt.
func TestStagedRecordWithoutKeyIsCorrupt(t *testing.T) {
	e := newKVEnv(t)
	h := e.kv.NewHandle(1)
	if err := h.Put([]byte("k"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	e.pool.Epochs().Drain()
	rec, err := h.ix.Get(keyFor(t, "k"))
	if err != nil {
		t.Fatal(err)
	}
	e.dev.Store(rec+recKeyOff, 0) // the fill as if it never persisted
	e.dev.Flush(rec + recKeyOff)
	e.dev.Fence()
	e.dev.Crash()
	a, err := alloc.New(e.dev, e.aReg, e.spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.audit(a); err == nil || !strings.Contains(err.Error(), "embeds key 0x0") {
		t.Fatalf("audit of a record with no key = %v, want it reported corrupt", err)
	}
}

// inBitmap reports whether off is an allocation-bitmap word of the
// allocator alloc.New lays out over region for spec.
func inBitmap(region nvram.Region, spec []alloc.Class, off nvram.Offset) bool {
	base := region.Base
	for _, c := range spec {
		n := ((c.Count+63)/64*nvram.WordSize + nvram.LineBytes - 1) &^ (nvram.LineBytes - 1)
		if off >= base && off < base+n {
			return true
		}
		base += n + c.BlockSize*c.Count
	}
	return false
}

// TestPutFenceOrder checks that a fence separates a new block's bit from
// the first descriptor pointer installed after it, on a blob PUT of a
// fresh key (the record and the skip-list node, both staged in the
// insert's descriptor) and of a present key (the record, staged in the
// overwrite's). Execute sets the bits after the descriptor's header is
// durable, then fences once before the first install. The simulator
// persists a line at Flush, so a crash image cannot show a missing
// fence; the hook reads the device's fence count at every op, and
// recognises a bit's CAS by the bit it adds and an install by the
// descriptor flag it leaves.
func TestPutFenceOrder(t *testing.T) {
	e := newKVEnv(t)
	h := e.kv.NewHandle(1)
	for _, c := range []struct {
		name string
		key  string
		bits int
	}{
		{"fresh key", "k", 2},
		{"present key", "k", 1},
	} {
		var cas nvram.Offset // the previous op's CAS target, or 0
		var casWord, casFences, bitFences uint64
		bits, checked := 0, 0
		pending := false
		e.dev.SetHook(func(op string, off nvram.Offset) {
			if cas != 0 {
				v := e.dev.Load(cas)
				switch {
				case inBitmap(e.aReg, e.spec, cas) && v&^casWord != 0:
					bitFences, pending = casFences, true
					bits++
				case v&(core.RDCSSFlag|core.MwCASFlag) != 0 && pending:
					if casFences <= bitFences {
						t.Errorf("%s: no fence between a bit's flush and the descriptor install at %#x", c.name, cas)
					}
					pending = false
					checked++
				}
				cas = 0
			}
			if op == "cas" {
				cas, casWord, casFences = off, e.dev.Load(off), e.dev.Stats().Fences
			}
		})
		err := h.Put([]byte(c.key), []byte(c.name))
		e.dev.SetHook(nil)
		if err != nil {
			t.Fatal(err)
		}
		if bits != c.bits || checked == 0 {
			t.Fatalf("%s: saw %d bits set and %d installs after one, want %d and at least 1", c.name, bits, checked, c.bits)
		}
	}
}
