package skiplist

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

// lenv is a full skip-list environment over one device.
type lenv struct {
	dev     *nvram.Device
	pool    *core.Pool
	alloc   *alloc.Allocator
	list    *List
	poolReg nvram.Region
	aReg    nvram.Region
	roots   nvram.Region
	spec    []alloc.Class
}

const (
	slDescs   = 128
	slWords   = MinDescriptorWords
	slHandles = 16
)

func slSpec() []alloc.Class {
	return []alloc.Class{
		{BlockSize: 64, Count: 4096},
		{BlockSize: 128, Count: 1024},
		{BlockSize: 256, Count: 512},
	}
}

// envDeadline bounds a test that builds a list: an op that livelocks (a
// descent that can never reach a linked level, say) panics the test
// binary, naming the test, instead of hanging the package until go test's
// -timeout. The slowest test here takes about 6 s under -race.
const envDeadline = 2 * time.Minute

// watchdog arms envDeadline for t; a benchmark runs as long as -benchtime
// asks, so it arms nothing there.
func watchdog(t testing.TB) {
	if _, ok := t.(*testing.T); !ok {
		return
	}
	timer := time.AfterFunc(envDeadline, func() {
		panic(fmt.Sprintf("%s still running after %v: an op livelocked", t.Name(), envDeadline))
	})
	t.Cleanup(func() { timer.Stop() })
}

func newListEnv(t testing.TB, mode core.Mode, opts ...nvram.Option) *lenv {
	t.Helper()
	watchdog(t)
	e := &lenv{spec: slSpec()}
	poolBytes := core.PoolSize(slDescs, slWords)
	aBytes := alloc.MetaSize(e.spec, slHandles)
	if mode == core.Volatile {
		opts = append(opts, nvram.WithVolatile())
	}
	e.dev = nvram.New(poolBytes+aBytes+1<<14, opts...)
	l := nvram.NewLayout(e.dev)
	e.poolReg = l.Carve(poolBytes)
	e.aReg = l.Carve(aBytes)
	e.roots = l.Carve(nvram.LineBytes)

	var err error
	e.alloc, err = alloc.New(e.dev, e.aReg, e.spec, slHandles)
	if err != nil {
		t.Fatalf("alloc.New: %v", err)
	}
	e.pool, err = core.NewPool(core.Config{
		Device:             e.dev,
		Region:             e.poolReg,
		DescriptorCount:    slDescs,
		WordsPerDescriptor: slWords,
		Mode:               mode,
		Allocator:          e.alloc,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	e.list, err = New(Config{Pool: e.pool, Allocator: e.alloc, Roots: e.roots})
	if err != nil {
		t.Fatalf("skiplist.New: %v", err)
	}
	return e
}

// reopen simulates a restart with full recovery and returns a fresh list
// over the same roots.
func (e *lenv) reopen(t testing.TB) {
	t.Helper()
	e.dev.SetHook(nil)
	e.dev.Crash()
	var err error
	e.alloc, err = alloc.New(e.dev, e.aReg, e.spec, slHandles)
	if err != nil {
		t.Fatalf("alloc reopen: %v", err)
	}
	e.pool, err = core.NewPool(core.Config{
		Device:             e.dev,
		Region:             e.poolReg,
		DescriptorCount:    slDescs,
		WordsPerDescriptor: slWords,
		Mode:               core.Persistent,
		Allocator:          e.alloc,
	})
	if err != nil {
		t.Fatalf("pool reopen: %v", err)
	}
	if _, err := e.pool.Recover(); err != nil {
		t.Fatalf("pool.Recover: %v", err)
	}
	e.list, err = New(Config{Pool: e.pool, Allocator: e.alloc, Roots: e.roots})
	if err != nil {
		t.Fatalf("list reopen: %v", err)
	}
}

func TestInsertGetDelete(t *testing.T) {
	for _, mode := range []core.Mode{core.Persistent, core.Volatile} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newListEnv(t, mode)
			h := e.list.NewHandle(1)
			if err := h.Insert(10, 100); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			if v, err := h.Get(10); err != nil || v != 100 {
				t.Fatalf("Get = (%d, %v)", v, err)
			}
			if err := h.Insert(10, 200); !errors.Is(err, ErrKeyExists) {
				t.Fatalf("duplicate Insert: %v", err)
			}
			if _, err := h.Get(11); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(absent): %v", err)
			}
			if err := h.Delete(10); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if _, err := h.Get(10); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after Delete: %v", err)
			}
			if err := h.Delete(10); !errors.Is(err, ErrNotFound) {
				t.Fatalf("double Delete: %v", err)
			}
		})
	}
}

func TestKeyAndValueValidation(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	if err := h.Insert(0, 1); !errors.Is(err, ErrKeyRange) {
		t.Fatalf("key 0 accepted: %v", err)
	}
	if err := h.Insert(MaxKey, 1); !errors.Is(err, ErrKeyRange) {
		t.Fatalf("sentinel key accepted: %v", err)
	}
	if err := h.Insert(5, DeletedMask); !errors.Is(err, ErrValueRange) {
		t.Fatalf("reserved-bit value accepted: %v", err)
	}
	if _, err := h.Get(0); !errors.Is(err, ErrKeyRange) {
		t.Fatalf("Get(0): %v", err)
	}
	if err := h.Delete(MaxKey); !errors.Is(err, ErrKeyRange) {
		t.Fatalf("Delete(sentinel): %v", err)
	}
	if err := h.Update(0, 1); !errors.Is(err, ErrKeyRange) {
		t.Fatalf("Update(0): %v", err)
	}
}

func TestUpdate(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	if err := h.Update(7, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Update(absent): %v", err)
	}
	h.Insert(7, 1)
	if err := h.Update(7, 2); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if v, _ := h.Get(7); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
	if err := h.Update(7, 2); err != nil { // no-op update
		t.Fatalf("idempotent Update: %v", err)
	}
}

func TestOrderedIteration(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	keys := []uint64{5, 1, 9, 3, 7, 2, 8, 4, 6}
	for _, k := range keys {
		if err := h.Insert(k, k*10); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	got, err := h.Range(1, MaxKey-1)
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	if len(got) != len(keys) {
		t.Fatalf("len = %d, want %d", len(got), len(keys))
	}
	for i, ent := range got {
		if ent.Key != uint64(i+1) || ent.Value != uint64(i+1)*10 {
			t.Fatalf("entry %d = %+v", i, ent)
		}
	}
}

func TestReverseScanMirrorsForward(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	for k := uint64(1); k <= 50; k++ {
		h.Insert(k*2, k)
	}
	fwd, _ := h.Range(10, 60)
	rev, _ := h.RangeReverse(10, 60)
	if len(fwd) == 0 || len(fwd) != len(rev) {
		t.Fatalf("len fwd=%d rev=%d", len(fwd), len(rev))
	}
	for i := range fwd {
		if fwd[i] != rev[len(rev)-1-i] {
			t.Fatalf("mismatch at %d: %+v vs %+v", i, fwd[i], rev[len(rev)-1-i])
		}
	}
}

func TestScanSubrangeAndEarlyStop(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	for k := uint64(1); k <= 20; k++ {
		h.Insert(k, k)
	}
	var seen []uint64
	h.Scan(5, 15, func(ent Entry) bool {
		seen = append(seen, ent.Key)
		return len(seen) < 3
	})
	if len(seen) != 3 || seen[0] != 5 || seen[2] != 7 {
		t.Fatalf("seen = %v", seen)
	}
}

func TestMinMax(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	if _, err := h.Min(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Min on empty: %v", err)
	}
	if _, err := h.Max(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Max on empty: %v", err)
	}
	for _, k := range []uint64{42, 7, 99} {
		h.Insert(k, k)
	}
	if m, _ := h.Min(); m.Key != 7 {
		t.Fatalf("Min = %+v", m)
	}
	if m, _ := h.Max(); m.Key != 99 {
		t.Fatalf("Max = %+v", m)
	}
}

func TestDeleteReclaimsNodeMemory(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	base, _ := e.alloc.InUse() // sentinels
	for k := uint64(1); k <= 100; k++ {
		h.Insert(k, k)
	}
	for k := uint64(1); k <= 100; k++ {
		h.Delete(k)
	}
	e.pool.Epochs().Advance()
	e.pool.Epochs().Collect()
	blocks, _ := e.alloc.InUse()
	if blocks != base {
		t.Fatalf("blocks in use = %d, want %d: deleted nodes leaked", blocks, base)
	}
}

// Property test: the list behaves exactly like a reference ordered map
// under an arbitrary operation sequence, including scans both ways.
func TestQuickAgainstReferenceModel(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		e := newListEnv(t, core.Persistent)
		h := e.list.NewHandle(seed)
		ref := map[uint64]uint64{}
		rng := rand.New(rand.NewSource(seed))
		for _, b := range opsRaw {
			key := uint64(rng.Intn(64) + 1)
			val := uint64(rng.Intn(1000))
			switch b % 4 {
			case 0:
				err := h.Insert(key, val)
				if _, dup := ref[key]; dup {
					if !errors.Is(err, ErrKeyExists) {
						return false
					}
				} else {
					if err != nil {
						return false
					}
					ref[key] = val
				}
			case 1:
				err := h.Delete(key)
				if _, ok := ref[key]; ok {
					if err != nil {
						return false
					}
					delete(ref, key)
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			case 2:
				v, err := h.Get(key)
				want, ok := ref[key]
				if ok != (err == nil) || (ok && v != want) {
					return false
				}
			case 3:
				err := h.Update(key, val)
				if _, ok := ref[key]; ok {
					if err != nil {
						return false
					}
					ref[key] = val
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			}
		}
		// Full forward scan must equal the sorted reference.
		var want []uint64
		for k := range ref {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got, err := h.Range(1, MaxKey-1)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i, ent := range got {
			if ent.Key != want[i] || ent.Value != ref[want[i]] {
				return false
			}
		}
		// Reverse scan must be the exact mirror.
		rev, err := h.RangeReverse(1, MaxKey-1)
		if err != nil || len(rev) != len(got) {
			return false
		}
		for i := range rev {
			if rev[i] != got[len(got)-1-i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Concurrency: disjoint key ranges per goroutine; every insert must be
// found, every delete must remove exactly its key.
func TestConcurrentDisjointWriters(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	const goroutines = 4
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := e.list.NewHandle(int64(g))
			lo := uint64(g*perG + 1)
			for k := lo; k < lo+perG; k++ {
				if err := h.Insert(k, k*2); err != nil {
					t.Errorf("Insert(%d): %v", k, err)
					return
				}
			}
			for k := lo; k < lo+perG; k += 2 {
				if err := h.Delete(k); err != nil {
					t.Errorf("Delete(%d): %v", k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	h := e.list.NewHandle(99)
	for g := 0; g < goroutines; g++ {
		lo := uint64(g*perG + 1)
		for k := lo; k < lo+perG; k++ {
			v, err := h.Get(k)
			if (lo-k)%2 == 0 { // deleted (k-lo even)
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("Get(%d) after delete: %v", k, err)
				}
			} else if err != nil || v != k*2 {
				t.Fatalf("Get(%d) = (%d, %v)", k, v, err)
			}
		}
	}
}

// Concurrency: all goroutines fight over the same keys. The final state
// must be a subset of the keys with consistent values, and the structure
// must stay a well-formed doubly-linked list at every level.
func TestConcurrentContendedMix(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	const goroutines = 4
	const keyspace = 32
	const opsPer = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := e.list.NewHandle(seed)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPer; i++ {
				k := uint64(rng.Intn(keyspace) + 1)
				switch rng.Intn(3) {
				case 0:
					h.Insert(k, k)
				case 1:
					h.Delete(k)
				case 2:
					if v, err := h.Get(k); err == nil && v != k {
						t.Errorf("Get(%d) = %d", k, v)
					}
				}
			}
		}(int64(g) + 7)
	}
	wg.Wait()
	e.checkStructure(t)
}

// checkStructure validates the full doubly-linked invariant at every
// level: next/prev are exact inverses, keys strictly ascend, and every
// upper-level node is present at the base.
func (e *lenv) checkStructure(t *testing.T) {
	t.Helper()
	h := e.list.NewHandle(0)
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()
	l := e.list

	baseKeys := map[uint64]bool{}
	for level := 0; level < MaxHeight; level++ {
		prevNode := l.head
		prevKey := uint64(0)
		for cur := h.read(l.head + linkOff(level, false)); ; {
			if cur&DeletedMask != 0 {
				t.Fatalf("level %d: reachable node with marked link", level)
			}
			back := h.read(cur + linkOff(level, true))
			if back != prevNode {
				t.Fatalf("level %d: prev of %#x is %#x, want %#x", level, cur, back, prevNode)
			}
			if cur == l.tail {
				break
			}
			k := l.key(cur)
			if k <= prevKey {
				t.Fatalf("level %d: keys not ascending: %d after %d", level, k, prevKey)
			}
			if level == 0 {
				baseKeys[k] = true
			} else if !baseKeys[k] {
				t.Fatalf("level %d: node %d not present at base", level, k)
			}
			prevKey, prevNode = k, cur
			cur = h.read(cur + linkOff(level, false))
		}
	}
}

func TestStructureAfterHeavySingleThreaded(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(3)
	rng := rand.New(rand.NewSource(3))
	live := map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Intn(300) + 1)
		if rng.Intn(2) == 0 {
			if h.Insert(k, k) == nil {
				live[k] = true
			}
		} else {
			if h.Delete(k) == nil {
				delete(live, k)
			}
		}
	}
	e.checkStructure(t)
	if got := e.list.Len(h); got != len(live) {
		t.Fatalf("Len = %d, want %d", got, len(live))
	}
}

func TestPersistAcrossRestart(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	for k := uint64(1); k <= 200; k++ {
		if err := h.Insert(k, k+1000); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	for k := uint64(1); k <= 200; k += 4 {
		h.Delete(k)
	}
	e.reopen(t)
	h2 := e.list.NewHandle(2)
	for k := uint64(1); k <= 200; k++ {
		v, err := h2.Get(k)
		if k%4 == 1 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key %d resurrected: %v", k, err)
			}
		} else if err != nil || v != k+1000 {
			t.Fatalf("Get(%d) after restart = (%d, %v)", k, v, err)
		}
	}
	e.checkStructure(t)
	// And the reopened list remains fully operational.
	if err := h2.Insert(1, 7); err != nil {
		t.Fatalf("Insert after restart: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	if _, err := New(Config{Allocator: e.alloc, Roots: e.roots}); err == nil {
		t.Fatal("nil pool accepted")
	}
	if _, err := New(Config{Pool: e.pool, Allocator: e.alloc,
		Roots: nvram.Region{Base: e.roots.Base, Len: 8}}); err == nil {
		t.Fatal("tiny roots accepted")
	}
	smallPool, err := core.NewPool(core.Config{
		Device: e.dev, Region: e.poolReg,
		DescriptorCount: 4, WordsPerDescriptor: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Pool: smallPool, Allocator: e.alloc, Roots: e.roots}); err == nil {
		t.Fatal("undersized descriptor capacity accepted")
	}
}

// TestCreateOutOfMemoryUnreserves: with room for one sentinel tower
// only, New reserves the head, fails to reserve the tail, and returns the
// head unactivated, so the free count comes back unchanged. So does the
// baseline list's constructor.
func TestCreateOutOfMemoryUnreserves(t *testing.T) {
	spec := []alloc.Class{{BlockSize: 256, Count: 1}}
	poolBytes := core.PoolSize(slDescs, slWords)
	aBytes := alloc.MetaSize(spec, 1)
	dev := nvram.New(poolBytes + aBytes + 1<<12)
	l := nvram.NewLayout(dev)
	poolReg, aReg, roots := l.Carve(poolBytes), l.Carve(aBytes), l.Carve(nvram.LineBytes)
	a, err := alloc.New(dev, aReg, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := core.NewPool(core.Config{
		Device: dev, Region: poolReg, DescriptorCount: slDescs, WordsPerDescriptor: slWords,
		Mode: core.Persistent, Allocator: a,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Pool: pool, Allocator: a, Roots: roots}); !errors.Is(err, alloc.ErrOutOfMemory) {
		t.Fatalf("New with room for one tower = %v, want ErrOutOfMemory", err)
	}
	if n := a.FreeBlocks(256); n != 1 {
		t.Fatalf("%d towers free after the failed New, want 1", n)
	}
	if _, err := NewCAS(dev, a, nil); !errors.Is(err, alloc.ErrOutOfMemory) {
		t.Fatalf("NewCAS with room for one tower = %v, want ErrOutOfMemory", err)
	}
	if n := a.FreeBlocks(256); n != 1 {
		t.Fatalf("%d towers free after the failed NewCAS, want 1", n)
	}
}

// TestGetLoadsEachKeyOnce pins a GET's device loads on a fixed list: one
// link word per step of the descent, one key per distinct node compared,
// and the value word of a key that is present. The towers put short
// nodes between taller ones, so a level's walk passes a node the level
// above never met and then meets the node that level stopped at again;
// and the found check must not reload the key the base level stopped at.
// The descent starts at the tallest tower's top level, not at MaxHeight,
// both on the list that linked the towers and on the list reopened after
// a crash, which finds its top in the head tower.
func TestGetLoadsEachKeyOnce(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	keys := []uint64{10, 20, 30, 40, 50, 60, 70, 80, 90}
	heights := []int{3, 1, 2, 1, 4, 1, 2, 1, 3}
	within(t, "linking the towers", func() {
		for i, k := range keys {
			h.link(t, k, heights[i])
		}
	})
	top := slices.Max(heights)
	// want walks the same towers from the top: pred and next index keys,
	// -1 is the head and len(keys) the tail, whose key no walk loads.
	want := func(key uint64) uint64 {
		steps, compared, pred := 0, map[int]bool{}, -1
		for level := top - 1; level >= 0; level-- {
			for {
				steps++
				next := pred + 1
				for next < len(keys) && heights[next] <= level {
					next++
				}
				if next == len(keys) {
					break
				}
				compared[next] = true
				if keys[next] >= key {
					break
				}
				pred = next
			}
		}
		loads := uint64(steps + len(compared))
		if _, found := slices.BinarySearch(keys, key); found {
			loads++ // the value word
		}
		return loads
	}
	check := func(when string) {
		t.Helper()
		if got := int(e.list.top.Load()); got != top {
			t.Fatalf("%s: top = %d, want %d, the tallest tower", when, got, top)
		}
		for key := uint64(1); key < 100; key++ {
			before := e.dev.Stats().Loads
			h.Get(key)
			if got := e.dev.Stats().Loads - before; got != want(key) {
				t.Errorf("%s: Get(%d) loaded %d words, want %d", when, key, got, want(key))
			}
		}
	}
	// A first pass persists any value word still marked dirty, which a
	// GET's read of it would otherwise flush.
	for key := uint64(1); key < 100; key++ {
		h.Get(key)
	}
	check("after the inserts")
	e.reopen(t)
	h = e.list.NewHandle(1)
	check("after a crash and recovery")
}

// TestGetPersistsDirtyLink: a link word a PMwCAS stored but has not yet
// flushed (dirty bit set, the persisted image still older) is flushed by
// the first Get that descends through it, so no reader acts on a link a
// crash could take back (paper §3, the dirty-bit read rule).
func TestGetPersistsDirtyLink(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	if err := h.Insert(10, 100); err != nil {
		t.Fatal(err)
	}
	off := e.list.head + nvram.Offset(linkOff(0, false))
	node := e.dev.Load(off)
	e.dev.Store(off, 0)
	e.dev.Flush(off)
	e.dev.Store(off, node|core.DirtyFlag)
	if v, err := h.Get(10); err != nil || v != 100 {
		t.Fatalf("Get = (%d, %v), want (100, nil)", v, err)
	}
	if got := e.dev.Load(off); got != node {
		t.Fatalf("head link after Get = %#x, want %#x with its dirty bit clear", got, node)
	}
	// The line is written back with the dirty bit still set; recovery
	// clears it.
	if got := e.dev.PersistedLoad(off) &^ core.DirtyFlag; got != node {
		t.Fatalf("persisted head link after Get = %#x, want %#x", got, node)
	}
}

// TestReusedBlockStartsUnpromoted churns tall towers out and short ones
// into their blocks. Reserve stores nothing, so a reused block still holds
// its dead occupant's marked upper links until the insert overwrites
// them. Each new node's upper links must read zero right after its base
// insert, every promotion of it must land, and the recovered list must
// pass Check with no leaked block.
func TestReusedBlockStartsUnpromoted(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	g := h.core.Guard()
	// add inserts key at height, calls fresh on the new node, then
	// promotes it to the top, failing the test unless every step lands.
	add := func(key uint64, height int, fresh func(node nvram.Offset)) nvram.Offset {
		g.Enter()
		defer g.Exit()
		r := h.find(key)
		node, err := h.insert(r.preds[0], r.succs[0], key, key, height, opInsert)
		if err != nil || node == 0 {
			t.Fatalf("insert(%d) = %#x, %v", key, node, err)
		}
		fresh(node)
		for level := 1; level < height; level++ {
			if !h.promote(node, key, level, &r) {
				t.Fatalf("key %d: promotion to level %d did not land", key, level)
			}
		}
		return node
	}
	// An odd key gets a tall tower, an even one a short tower.
	heights := func(key uint64, tall, short int) int {
		if key%2 == 1 {
			return tall
		}
		return short
	}

	// Tall towers (6 levels in the 128 B class, 2 in the 64 B class),
	// then delete them all: their blocks go back with marked upper links.
	old := map[nvram.Offset]int{}
	for k := uint64(1); k <= 64; k++ {
		height := heights(k, 6, 2)
		old[add(k, height, func(nvram.Offset) {})] = height
	}
	for k := uint64(1); k <= 64; k++ {
		if err := h.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	e.drain()

	// Shorter towers into the same blocks.
	reused := 0
	var keys []uint64
	for k := uint64(101); k <= 164; k++ {
		height := heights(k, 3, 2)
		add(k, height, func(node nvram.Offset) {
			if _, ok := old[node]; ok {
				reused++
			}
			for level := 1; level < height; level++ {
				if n, p := h.read(node+linkOff(level, false)), h.read(node+linkOff(level, true)); n != 0 || p != 0 {
					t.Fatalf("key %d in reused block %#x: level-%d links (%#x, %#x) before promotion, want zero",
						k, node, level, n, p)
				}
			}
		})
		keys = append(keys, k)
	}
	if reused < 32 {
		t.Fatalf("only %d of 64 new nodes reused a freed block: the churn tested nothing", reused)
	}
	e.checkStructure(t)
	e.audit(t, keys)
}
