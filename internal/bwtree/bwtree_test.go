package bwtree

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

// tenv is a full Bw-tree environment over one device.
type tenv struct {
	dev     *nvram.Device
	pool    *core.Pool
	alloc   *alloc.Allocator
	tree    *Tree
	cfg     Config
	poolReg nvram.Region
	aReg    nvram.Region
	mapReg  nvram.Region
	spec    []alloc.Class
	smo     SMOMode
	mode    core.Mode
}

const (
	btDescs   = 128
	btWords   = 8
	btHandles = 16
)

func btSpec() []alloc.Class {
	return []alloc.Class{
		{BlockSize: 64, Count: 8192},
		{BlockSize: 512, Count: 1024},
		{BlockSize: 1024, Count: 512},
		{BlockSize: 2048, Count: 256},
	}
}

func newTreeEnv(t testing.TB, mode core.Mode, smo SMOMode, tweak func(*Config)) *tenv {
	t.Helper()
	return newTreeEnvSpec(t, mode, smo, btSpec(), tweak)
}

// newTreeEnvSpec is newTreeEnv over the allocator size classes spec.
func newTreeEnvSpec(t testing.TB, mode core.Mode, smo SMOMode, spec []alloc.Class, tweak func(*Config)) *tenv {
	t.Helper()
	e := &tenv{spec: spec, smo: smo, mode: mode}
	poolBytes := core.PoolSize(btDescs, btWords)
	aBytes := alloc.MetaSize(e.spec, btHandles)
	var opts []nvram.Option
	if mode == core.Volatile {
		opts = append(opts, nvram.WithVolatile())
	}
	e.dev = nvram.New(poolBytes+aBytes+1<<16, opts...)
	l := nvram.NewLayout(e.dev)
	e.poolReg = l.Carve(poolBytes)
	e.aReg = l.Carve(aBytes)
	e.mapReg = l.Carve(4096 * nvram.WordSize)

	var err error
	e.alloc, err = alloc.New(e.dev, e.aReg, e.spec, btHandles)
	if err != nil {
		t.Fatalf("alloc.New: %v", err)
	}
	e.pool, err = core.NewPool(core.Config{
		Device: e.dev, Region: e.poolReg,
		DescriptorCount: btDescs, WordsPerDescriptor: btWords,
		Mode: mode, Allocator: e.alloc,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	e.cfg = Config{
		Pool: e.pool, Allocator: e.alloc,
		Mapping:      e.mapReg,
		SMO:          smo,
		LeafCapacity: 16, InnerCapacity: 8, ConsolidateAfter: 4,
	}
	if tweak != nil {
		tweak(&e.cfg)
	}
	e.tree, err = New(e.cfg)
	if err != nil {
		t.Fatalf("bwtree.New: %v", err)
	}
	return e
}

// reopen simulates a crash + restart with full recovery.
func (e *tenv) reopen(t testing.TB) {
	t.Helper()
	e.dev.SetHook(nil)
	e.dev.Crash()
	var err error
	e.alloc, err = alloc.New(e.dev, e.aReg, e.spec, btHandles)
	if err != nil {
		t.Fatalf("alloc reopen: %v", err)
	}
	e.pool, err = core.NewPool(core.Config{
		Device: e.dev, Region: e.poolReg,
		DescriptorCount: btDescs, WordsPerDescriptor: btWords,
		Mode: core.Persistent, Allocator: e.alloc,
	})
	if err != nil {
		t.Fatalf("pool reopen: %v", err)
	}
	RegisterRecoveryCallbacks(e.pool)
	if _, err := e.pool.Recover(); err != nil {
		t.Fatalf("pool.Recover: %v", err)
	}
	cfg := e.cfg
	cfg.Pool, cfg.Allocator = e.pool, e.alloc
	e.tree, err = New(cfg)
	if err != nil {
		t.Fatalf("tree reopen: %v", err)
	}
}

// checkStructure walks the whole tree verifying B+-tree invariants:
// fence nesting, sorted keys, child/parent agreement, side-link
// continuity at the leaf level.
func (e *tenv) checkStructure(t *testing.T) {
	t.Helper()
	h := e.tree.NewHandle()
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()

	var walk func(lpid uint64, low, high uint64, depth int) []uint64
	walk = func(lpid uint64, low, high uint64, depth int) []uint64 {
		if depth > 32 {
			t.Fatalf("tree depth exploded at lpid %d", lpid)
		}
		head := h.readMapping(lpid)
		if head == 0 {
			t.Fatalf("lpid %d unmapped but referenced", lpid)
		}
		v := h.resolve(head)
		if v.removed {
			t.Fatalf("lpid %d removed but referenced", lpid)
		}
		if v.low != low || v.high > high {
			t.Fatalf("lpid %d fences (%d,%d] not nested in (%d,%d]", lpid, v.low, v.high, low, high)
		}
		if v.isLeaf {
			var keys []uint64
			prev := v.low
			for _, ent := range v.entries {
				if ent.Key <= prev {
					t.Fatalf("leaf %d keys not strictly ascending: %d after %d", lpid, ent.Key, prev)
				}
				if ent.Key <= v.low || ent.Key > v.high {
					t.Fatalf("leaf %d key %d outside fences (%d,%d]", lpid, ent.Key, v.low, v.high)
				}
				prev = ent.Key
				keys = append(keys, ent.Key)
			}
			return keys
		}
		if len(v.entries) == 0 {
			t.Fatalf("inner %d is empty", lpid)
		}
		var keys []uint64
		// Copy the routing entries before recursing: resolve recycles its
		// view buffers per handle (Handle.viewRing), so the recursive
		// walk below would overwrite v.entries.
		inner := append([]Entry(nil), v.entries...)
		vHigh := v.high
		childLow := v.low
		for i, ent := range inner {
			if ent.Key <= childLow && !(i == 0 && ent.Key == childLow) {
				if ent.Key <= childLow {
					t.Fatalf("inner %d separators not ascending at %d", lpid, i)
				}
			}
			keys = append(keys, walk(ent.Value, childLow, ent.Key, depth+1)...)
			childLow = ent.Key
		}
		if inner[len(inner)-1].Key != vHigh {
			t.Fatalf("inner %d last separator %d != high fence %d",
				lpid, inner[len(inner)-1].Key, vHigh)
		}
		return keys
	}
	keys := walk(RootLPID, 0, MaxKey, 0)
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("global key order violated at %d: %d after %d", i, keys[i], keys[i-1])
		}
	}
	// Scan must agree with the structural walk.
	scanned, err := h.Range(1, MaxKey-1)
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	if len(scanned) != len(keys) {
		t.Fatalf("scan found %d keys, walk found %d", len(scanned), len(keys))
	}
	for i := range scanned {
		if scanned[i].Key != keys[i] {
			t.Fatalf("scan/walk disagree at %d: %d vs %d", i, scanned[i].Key, keys[i])
		}
	}
}

// variants enumerates the tree configurations under test.
func variants() []struct {
	name string
	mode core.Mode
	smo  SMOMode
} {
	return []struct {
		name string
		mode core.Mode
		smo  SMOMode
	}{
		{"PMwCAS-Persistent", core.Persistent, SMOPMwCAS},
		{"MwCAS-Volatile", core.Volatile, SMOPMwCAS},
		{"SingleCAS-Volatile", core.Volatile, SMOSingleCAS},
	}
}

func TestInsertGetDelete(t *testing.T) {
	for _, vt := range variants() {
		t.Run(vt.name, func(t *testing.T) {
			e := newTreeEnv(t, vt.mode, vt.smo, nil)
			h := e.tree.NewHandle()
			if err := h.Insert(42, 420); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			if v, err := h.Get(42); err != nil || v != 420 {
				t.Fatalf("Get = (%d, %v)", v, err)
			}
			if err := h.Insert(42, 1); !errors.Is(err, ErrKeyExists) {
				t.Fatalf("duplicate Insert: %v", err)
			}
			if err := h.Update(42, 421); err != nil {
				t.Fatalf("Update: %v", err)
			}
			if v, _ := h.Get(42); v != 421 {
				t.Fatalf("value after Update = %d", v)
			}
			if err := h.Delete(42); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if _, err := h.Get(42); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after Delete: %v", err)
			}
			if err := h.Delete(42); !errors.Is(err, ErrNotFound) {
				t.Fatalf("double Delete: %v", err)
			}
			if err := h.Update(42, 1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Update absent: %v", err)
			}
		})
	}
}

func TestValidation(t *testing.T) {
	e := newTreeEnv(t, core.Persistent, SMOPMwCAS, nil)
	h := e.tree.NewHandle()
	if err := h.Insert(0, 1); !errors.Is(err, ErrKeyRange) {
		t.Fatalf("key 0: %v", err)
	}
	if err := h.Insert(MaxKey, 1); !errors.Is(err, ErrKeyRange) {
		t.Fatalf("MaxKey: %v", err)
	}
	if err := h.Insert(5, 1<<62); !errors.Is(err, ErrValueRange) {
		t.Fatalf("flagged value: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	e := newTreeEnv(t, core.Persistent, SMOPMwCAS, nil)
	bad := e.cfg
	bad.Pool = nil
	if _, err := New(bad); err == nil {
		t.Error("nil pool accepted")
	}
	bad = e.cfg
	bad.SMO = SMOSingleCAS // persistent pool
	if _, err := New(bad); err == nil {
		t.Error("SingleCAS over persistent pool accepted")
	}
	bad = e.cfg
	bad.LeafCapacity = 4
	if _, err := New(bad); err == nil {
		t.Error("tiny leaf capacity accepted")
	}
	bad = e.cfg
	bad.MergeBelow = 12 // >= leafCap/2
	if _, err := New(bad); err == nil {
		t.Error("oversized MergeBelow accepted")
	}
	bad = e.cfg
	bad.Mapping = nvram.Region{Base: e.mapReg.Base, Len: 8 * nvram.WordSize}
	if _, err := New(bad); err == nil {
		t.Error("tiny mapping region accepted")
	}
}

// TestSplitsCascade pushes enough sequential keys through a tiny tree to
// force leaf splits, root splits, and inner splits, in every variant.
func TestSplitsCascade(t *testing.T) {
	for _, vt := range variants() {
		t.Run(vt.name, func(t *testing.T) {
			e := newTreeEnv(t, vt.mode, vt.smo, nil)
			h := e.tree.NewHandle()
			const n = 2000
			for k := uint64(1); k <= n; k++ {
				if err := h.Insert(k, k*7); err != nil {
					t.Fatalf("Insert(%d): %v", k, err)
				}
			}
			for k := uint64(1); k <= n; k++ {
				if v, err := h.Get(k); err != nil || v != k*7 {
					t.Fatalf("Get(%d) = (%d, %v)", k, v, err)
				}
			}
			st := e.tree.Stats(h)
			if st.Height < 3 {
				t.Fatalf("height = %d: splits never cascaded (stats %+v)", st.Height, st)
			}
			if st.Keys != n {
				t.Fatalf("stats.Keys = %d, want %d", st.Keys, n)
			}
			e.checkStructure(t)
		})
	}
}

func TestRandomOrderInsertAndScan(t *testing.T) {
	for _, vt := range variants() {
		t.Run(vt.name, func(t *testing.T) {
			e := newTreeEnv(t, vt.mode, vt.smo, nil)
			h := e.tree.NewHandle()
			rng := rand.New(rand.NewSource(11))
			perm := rng.Perm(1500)
			for _, p := range perm {
				k := uint64(p) + 1
				if err := h.Insert(k, k); err != nil {
					t.Fatalf("Insert(%d): %v", k, err)
				}
			}
			got, err := h.Range(100, 200)
			if err != nil {
				t.Fatalf("Range: %v", err)
			}
			if len(got) != 101 {
				t.Fatalf("Range len = %d, want 101", len(got))
			}
			for i, ent := range got {
				if ent.Key != uint64(100+i) {
					t.Fatalf("Range[%d] = %d", i, ent.Key)
				}
			}
			e.checkStructure(t)
		})
	}
}

func TestScanEarlyStop(t *testing.T) {
	e := newTreeEnv(t, core.Persistent, SMOPMwCAS, nil)
	h := e.tree.NewHandle()
	for k := uint64(1); k <= 100; k++ {
		h.Insert(k, k)
	}
	var seen int
	h.Scan(1, 100, func(Entry) bool { seen++; return seen < 5 })
	if seen != 5 {
		t.Fatalf("seen = %d", seen)
	}
}

// Property: the tree matches a reference map under random operations.
func TestQuickAgainstReferenceModel(t *testing.T) {
	for _, vt := range variants() {
		t.Run(vt.name, func(t *testing.T) {
			f := func(seed int64, opsRaw []byte) bool {
				e := newTreeEnv(t, vt.mode, vt.smo, nil)
				h := e.tree.NewHandle()
				ref := map[uint64]uint64{}
				rng := rand.New(rand.NewSource(seed))
				for _, b := range opsRaw {
					key := uint64(rng.Intn(200) + 1)
					val := uint64(rng.Intn(1000))
					switch b % 4 {
					case 0:
						err := h.Insert(key, val)
						if _, dup := ref[key]; dup {
							if !errors.Is(err, ErrKeyExists) {
								return false
							}
						} else if err != nil {
							return false
						} else {
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
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMergeShrinksTree(t *testing.T) {
	e := newTreeEnv(t, core.Persistent, SMOPMwCAS, func(c *Config) { c.MergeBelow = 4 })
	h := e.tree.NewHandle()
	const n = 600
	for k := uint64(1); k <= n; k++ {
		if err := h.Insert(k, k); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	grown := e.tree.Stats(h)
	for k := uint64(1); k <= n; k++ {
		if k%16 != 0 {
			if err := h.Delete(k); err != nil {
				t.Fatalf("Delete(%d): %v", k, err)
			}
		}
	}
	shrunk := e.tree.Stats(h)
	if shrunk.Leaves >= grown.Leaves {
		t.Fatalf("merging never fired: %d leaves before, %d after", grown.Leaves, shrunk.Leaves)
	}
	for k := uint64(1); k <= n; k++ {
		v, err := h.Get(k)
		if k%16 == 0 {
			if err != nil || v != k {
				t.Fatalf("survivor Get(%d) = (%d, %v)", k, v, err)
			}
		} else if !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted Get(%d): %v", k, err)
		}
	}
	e.checkStructure(t)
}

// TestRootCollapseShrinksHeight grows a multi-level tree, deletes almost
// everything, and expects merging plus root collapse to bring the height
// back down with all survivors intact.
func TestRootCollapseShrinksHeight(t *testing.T) {
	e := newTreeEnv(t, core.Persistent, SMOPMwCAS, func(c *Config) { c.MergeBelow = 6 })
	h := e.tree.NewHandle()
	const n = 800
	for k := uint64(1); k <= n; k++ {
		if err := h.Insert(k, k); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	grown := e.tree.Stats(h)
	if grown.Height < 3 {
		t.Fatalf("tree never grew: %+v", grown)
	}
	for k := uint64(1); k <= n; k++ {
		if k%100 != 0 {
			if err := h.Delete(k); err != nil {
				t.Fatalf("Delete(%d): %v", k, err)
			}
		}
	}
	// Churn a little to trigger remaining consolidations/merges.
	for k := uint64(1); k <= n; k += 50 {
		h.Insert(k, k)
		h.Delete(k)
	}
	shrunk := e.tree.Stats(h)
	if shrunk.Height >= grown.Height {
		t.Fatalf("height never shrank: %d -> %d", grown.Height, shrunk.Height)
	}
	for k := uint64(100); k <= n; k += 100 {
		if v, err := h.Get(k); err != nil || v != k {
			t.Fatalf("survivor Get(%d) = (%d, %v)", k, v, err)
		}
	}
	e.checkStructure(t)
	// Crash + recover: the collapsed tree must persist and keep working.
	e.reopen(t)
	h2 := e.tree.NewHandle()
	for k := uint64(100); k <= n; k += 100 {
		if v, err := h2.Get(k); err != nil || v != k {
			t.Fatalf("survivor after crash Get(%d) = (%d, %v)", k, v, err)
		}
	}
	e.checkStructure(t)
}

func TestConcurrentDisjointWriters(t *testing.T) {
	for _, vt := range variants() {
		t.Run(vt.name, func(t *testing.T) {
			e := newTreeEnv(t, vt.mode, vt.smo, nil)
			const goroutines = 4
			const perG = 300
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h := e.tree.NewHandle()
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
			if t.Failed() {
				return
			}
			h := e.tree.NewHandle()
			for g := 0; g < goroutines; g++ {
				lo := uint64(g*perG + 1)
				for k := lo; k < lo+perG; k++ {
					v, err := h.Get(k)
					if (k-lo)%2 == 0 {
						if !errors.Is(err, ErrNotFound) {
							t.Fatalf("Get(%d) after delete: %v", k, err)
						}
					} else if err != nil || v != k*2 {
						t.Fatalf("Get(%d) = (%d, %v)", k, v, err)
					}
				}
			}
			e.checkStructure(t)
		})
	}
}

func TestConcurrentContendedMix(t *testing.T) {
	for _, vt := range variants() {
		t.Run(vt.name, func(t *testing.T) {
			e := newTreeEnv(t, vt.mode, vt.smo, nil)
			const goroutines = 4
			const keyspace = 128
			const opsPer = 400
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					h := e.tree.NewHandle()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < opsPer; i++ {
						k := uint64(rng.Intn(keyspace) + 1)
						switch rng.Intn(4) {
						case 0:
							h.Insert(k, k)
						case 1:
							h.Delete(k)
						case 2:
							if v, err := h.Get(k); err == nil && v != k {
								t.Errorf("Get(%d) = %d", k, v)
							}
						case 3:
							h.Range(k, k+10)
						}
					}
				}(int64(g) + 31)
			}
			wg.Wait()
			if !t.Failed() {
				e.checkStructure(t)
			}
		})
	}
}

// TestConcurrentLoadFromEmpty: four goroutines insert 1,250 fresh
// random keys each into an empty tree with the default capacities.
// Nobody appends to a chain at twice the consolidation threshold, and a
// page splits whatever its chain, so maintenance keeps up: no chain
// outgrows that cap and the load takes tens of milliseconds (the time
// bound only catches a stall; -race runs are slower). Before, a few lost
// consolidation races grew the root leaf past the largest size class,
// after which nothing could consolidate or split it again and every
// insert walked one ever-longer chain.
func TestConcurrentLoadFromEmpty(t *testing.T) {
	const goroutines, perG = 4, 1250
	rng := rand.New(rand.NewSource(5))
	fresh := map[uint64]bool{}
	var keys []uint64
	for len(keys) < goroutines*perG {
		if k := uint64(rng.Int63n(1<<40)) + 1; !fresh[k] {
			fresh[k] = true
			keys = append(keys, k)
		}
	}
	for _, vt := range variants() {
		t.Run(vt.name, func(t *testing.T) {
			e := newTreeEnv(t, vt.mode, vt.smo, func(c *Config) {
				c.LeafCapacity, c.InnerCapacity, c.ConsolidateAfter = 0, 0, 0
			})
			start := time.Now()
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(keys []uint64) {
					defer wg.Done()
					h := e.tree.NewHandle()
					for _, k := range keys {
						if err := h.Insert(k, k); err != nil {
							t.Errorf("Insert(%d): %v", k, err)
							return
						}
					}
				}(keys[g*perG : (g+1)*perG])
			}
			wg.Wait()
			elapsed := time.Since(start)
			if t.Failed() {
				return
			}
			st := e.tree.Stats(e.tree.NewHandle())
			t.Logf("%v, %+v", elapsed, st)
			if st.Keys != len(keys) {
				t.Errorf("Stats.Keys = %d, want %d", st.Keys, len(keys))
			}
			// Writers never append to a chain at the cap; the baseline's
			// split delta may sit one above it until the next
			// consolidation.
			maxChain := 2 * e.tree.consolAt
			if vt.smo == SMOSingleCAS {
				maxChain++
			}
			if st.MaxChain > maxChain {
				t.Errorf("MaxChain = %d, cap %d", st.MaxChain, maxChain)
			}
			if elapsed > 20*time.Second {
				t.Errorf("load took %v", elapsed)
			}
			e.checkStructure(t)
		})
	}
}

// TestCrowdedChainReportsOutOfMemory: when no block can hold a
// consolidated page, a writer that meets a crowded chain fails with the
// allocator's error instead of appending past the cap, and the tree
// keeps its contents and keeps serving reads.
func TestCrowdedChainReportsOutOfMemory(t *testing.T) {
	for _, vt := range variants() {
		t.Run(vt.name, func(t *testing.T) {
			// One page-sized block: the first consolidation takes it and
			// the next cannot be built.
			spec := []alloc.Class{{BlockSize: 64, Count: 256}, {BlockSize: 512, Count: 1}}
			e := newTreeEnvSpec(t, vt.mode, vt.smo, spec, nil)
			h := e.tree.NewHandle()
			var err error
			n := uint64(0)
			for err == nil && n < 100 {
				n++
				err = h.Insert(n, n)
			}
			if !errors.Is(err, alloc.ErrOutOfMemory) {
				t.Fatalf("Insert(%d) = %v, want ErrOutOfMemory", n, err)
			}
			st := e.tree.Stats(h)
			if st.MaxChain != 2*e.tree.consolAt {
				t.Errorf("MaxChain = %d, want the cap %d", st.MaxChain, 2*e.tree.consolAt)
			}
			for k := uint64(1); k < n; k++ {
				if v, err := h.Get(k); err != nil || v != k {
					t.Fatalf("Get(%d) = (%d, %v)", k, v, err)
				}
			}
			if _, err := h.Get(n); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get of the refused key: %v", err)
			}
		})
	}
}

func TestPersistAcrossRestart(t *testing.T) {
	e := newTreeEnv(t, core.Persistent, SMOPMwCAS, nil)
	h := e.tree.NewHandle()
	const n = 1000
	for k := uint64(1); k <= n; k++ {
		if err := h.Insert(k, k+5); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	for k := uint64(3); k <= n; k += 3 {
		h.Delete(k)
	}
	e.reopen(t)
	h2 := e.tree.NewHandle()
	for k := uint64(1); k <= n; k++ {
		v, err := h2.Get(k)
		if k%3 == 0 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key %d resurrected: %v", k, err)
			}
		} else if err != nil || v != k+5 {
			t.Fatalf("Get(%d) after restart = (%d, %v)", k, v, err)
		}
	}
	e.checkStructure(t)
	if err := h2.Insert(n+1, 1); err != nil {
		t.Fatalf("Insert after restart: %v", err)
	}
}

func TestStatsShape(t *testing.T) {
	e := newTreeEnv(t, core.Persistent, SMOPMwCAS, nil)
	h := e.tree.NewHandle()
	st := e.tree.Stats(h)
	if st.Height != 1 || st.Leaves != 1 || st.Keys != 0 {
		t.Fatalf("fresh stats = %+v", st)
	}
	for k := uint64(1); k <= 100; k++ {
		h.Insert(k, k)
	}
	st = e.tree.Stats(h)
	if st.Keys != 100 || st.Leaves < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// Leaked-versus-live accounting: inserts followed by deletes must return
// the tree to its baseline footprint (all delta chains and dead pages
// reclaimed), within the page count the structure retains.
func TestMemoryReclaimedAfterChurn(t *testing.T) {
	e := newTreeEnv(t, core.Persistent, SMOPMwCAS, nil)
	h := e.tree.NewHandle()
	for round := 0; round < 3; round++ {
		for k := uint64(1); k <= 300; k++ {
			if err := h.Insert(k, k); err != nil {
				t.Fatalf("round %d Insert(%d): %v", round, k, err)
			}
		}
		for k := uint64(1); k <= 300; k++ {
			if err := h.Delete(k); err != nil {
				t.Fatalf("round %d Delete(%d): %v", round, k, err)
			}
		}
	}
	e.pool.Epochs().Advance()
	e.pool.Epochs().Collect()
	// Consolidate every chain so only base pages remain.
	for k := uint64(1); k <= 300; k += 10 {
		h.Insert(k, k)
		h.Delete(k)
	}
	e.pool.Epochs().Advance()
	e.pool.Epochs().Collect()

	st := e.tree.Stats(h)
	blocks, _ := e.alloc.InUse()
	// Live blocks: one base page per page, plus current chains.
	maxLive := uint64(st.Leaves+st.Inners+st.InnerDeltas+st.LeafDeltas) + 2
	if blocks > maxLive*2 {
		t.Fatalf("%d blocks in use for %d pages + %d deltas: chains leaking",
			blocks, st.Leaves+st.Inners, st.InnerDeltas+st.LeafDeltas)
	}
}

func TestContainsAndLen(t *testing.T) {
	e := newTreeEnv(t, core.Persistent, SMOPMwCAS, nil)
	h := e.tree.NewHandle()
	if h.Contains(5) {
		t.Fatal("Contains on empty tree")
	}
	for k := uint64(1); k <= 30; k++ {
		h.Insert(k, k)
	}
	if !h.Contains(5) || h.Contains(31) {
		t.Fatal("Contains wrong")
	}
	if got := h.Len(); got != 30 {
		t.Fatalf("Len = %d, want 30", got)
	}
	if SMOPMwCAS.String() != "PMwCAS" || SMOSingleCAS.String() != "SingleCAS" {
		t.Fatal("SMOMode.String")
	}
}

// TestReadMappingMasksBaselineFlags pins the fix for a protocol leak the
// flushfact analyzer found: readMapping's SMOSingleCAS branch used to
// return the raw device word, so a protocol flag bit sitting in a
// mapping slot — e.g. left by a descriptor-mode writer before the image
// was reopened in baseline mode — would flow unmasked into every
// caller's compare and re-store. The baseline branch must strip flag
// bits just like the descriptor branch does.
func TestReadMappingMasksBaselineFlags(t *testing.T) {
	e := newTreeEnv(t, core.Volatile, SMOSingleCAS, nil)
	h := e.tree.NewHandle()
	off := e.tree.mappingOff(RootLPID)
	raw := e.dev.Load(off)
	e.dev.Store(off, raw|core.DirtyFlag)
	if got := h.readMapping(RootLPID); got != raw {
		t.Fatalf("readMapping = %#x, want flag-masked %#x", got, raw)
	}
	e.dev.Store(off, raw)
	if h.readMapping(RootLPID) != raw {
		t.Fatal("readMapping altered a clean word")
	}
}

// TestGetPersistsDirtyMapping: a mapping word a PMwCAS stored but has not
// yet flushed (dirty bit set, the persisted image still older) is flushed
// by the first Get that descends through it, so no reader acts on a
// mapping a crash could take back (paper §3, the dirty-bit read rule).
func TestGetPersistsDirtyMapping(t *testing.T) {
	e := newTreeEnv(t, core.Persistent, SMOPMwCAS, nil)
	h := e.tree.NewHandle()
	if err := h.Insert(10, 100); err != nil {
		t.Fatal(err)
	}
	off := e.tree.mappingOff(RootLPID)
	page := e.dev.Load(off)
	e.dev.Store(off, 0)
	e.dev.Flush(off)
	e.dev.Store(off, page|core.DirtyFlag)
	if v, err := h.Get(10); err != nil || v != 100 {
		t.Fatalf("Get = (%d, %v), want (100, nil)", v, err)
	}
	if got := e.dev.Load(off); got != page {
		t.Fatalf("mapping word after Get = %#x, want %#x with its dirty bit clear", got, page)
	}
	// The line is written back with the dirty bit still set; recovery
	// clears it.
	if got := e.dev.PersistedLoad(off) &^ core.DirtyFlag; got != page {
		t.Fatalf("persisted mapping word after Get = %#x, want %#x", got, page)
	}
}

// TestFullDefaultPageFitsItsClass: with the default capacities, a full
// page (61 entries, 1,016 bytes) is reserved from the 1 KiB class of the
// store's default classes, not the 4 KiB one, and one entry more would
// not fit it.
func TestFullDefaultPageFitsItsClass(t *testing.T) {
	if baseSize(defaultCapacity) > 1024 || baseSize(defaultCapacity+1) <= 1024 {
		t.Fatalf("defaultCapacity %d is not the most entries a 1 KiB block holds", defaultCapacity)
	}
	spec := []alloc.Class{
		{BlockSize: 64, Count: 4096},
		{BlockSize: 128, Count: 256},
		{BlockSize: 256, Count: 128},
		{BlockSize: 1024, Count: 64},
		{BlockSize: 4096, Count: 16},
	}
	e := newTreeEnvSpec(t, core.Persistent, SMOPMwCAS, spec, func(c *Config) {
		c.LeafCapacity, c.InnerCapacity = 0, 0
	})
	h := e.tree.NewHandle()
	for k := uint64(1); k <= defaultCapacity; k++ {
		if err := h.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	g := h.core.Guard()
	g.Enter()
	v := h.resolve(h.readMapping(RootLPID))
	page, err := h.consolidate(RootLPID, &v)
	g.Exit()
	if err != nil || page == 0 {
		t.Fatalf("consolidate = %#x, %v", page, err)
	}
	if len(v.entries) != defaultCapacity {
		t.Fatalf("the root holds %d entries, want a full page of %d", len(v.entries), defaultCapacity)
	}
	if size, err := e.alloc.BlockSize(page); err != nil || size != 1024 {
		t.Errorf("a full default page took a %d-byte block (%v), want 1024", size, err)
	}
}
