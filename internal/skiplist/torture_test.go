package skiplist

import (
	"errors"
	"math/rand"
	"testing"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

// newTortureEnv builds a persistent list environment with opportunistic
// cache eviction enabled: lines the protocol never flushed may persist
// anyway (paper footnote 1), which recovery must tolerate.
func newTortureEnv(t testing.TB, evict int) *lenv {
	t.Helper()
	watchdog(t)
	e := &lenv{spec: slSpec()}
	poolBytes := core.PoolSize(slDescs, slWords)
	aBytes := alloc.MetaSize(e.spec, slHandles)
	opts := []nvram.Option{}
	if evict > 0 {
		opts = append(opts, nvram.WithEviction(evict))
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
		Device: e.dev, Region: e.poolReg,
		DescriptorCount: slDescs, WordsPerDescriptor: slWords,
		Mode: core.Persistent, Allocator: e.alloc,
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

// TestTortureRandomCrashes: random insert/delete/update sequences, a
// crash at a random device step, recovery, then full validation: the
// surviving key set is exactly the committed prefix's effect for every
// key except possibly the single operation in flight at the crash, and
// the structure invariants hold.
func TestTortureRandomCrashes(t *testing.T) {
	for _, evict := range []int{0, 5} {
		for seed := int64(1); seed <= 25; seed++ {
			rng := rand.New(rand.NewSource(seed * 17))
			e := newTortureEnv(t, evict)
			h := e.list.NewHandle(seed)

			// Committed state tracker. Only ops that returned before the
			// crash are recorded; the in-flight one may land either way.
			expect := map[uint64]uint64{}
			var inflightKey uint64

			crashAt := rng.Intn(2500) + 50
			step := 0
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(crashPanic); !ok {
							panic(r)
						}
					}
				}()
				e.dev.SetHook(func(op string, off nvram.Offset) {
					step++
					if step == crashAt {
						panic(crashPanic{})
					}
				})
				defer e.dev.SetHook(nil)
				for op := 0; op < 60; op++ {
					k := uint64(rng.Intn(40) + 1)
					inflightKey = k
					switch rng.Intn(3) {
					case 0:
						if err := h.Insert(k, k*2); err == nil {
							expect[k] = k * 2
						} else if !errors.Is(err, ErrKeyExists) {
							t.Errorf("Insert(%d): %v", k, err)
						}
					case 1:
						if err := h.Delete(k); err == nil {
							delete(expect, k)
						} else if !errors.Is(err, ErrNotFound) {
							t.Errorf("Delete(%d): %v", k, err)
						}
					case 2:
						if err := h.Update(k, k*3); err == nil {
							expect[k] = k * 3
						} else if !errors.Is(err, ErrNotFound) {
							t.Errorf("Update(%d): %v", k, err)
						}
					}
					inflightKey = 0
				}
			}()
			e.dev.SetHook(nil)

			e.reopen(t)
			e.checkStructure(t)
			h2 := e.list.NewHandle(seed + 1000)
			for k := uint64(1); k <= 40; k++ {
				v, err := h2.Get(k)
				want, present := expect[k]
				if k == inflightKey {
					continue // the in-flight op may or may not have landed
				}
				if present && (err != nil || v != want) {
					t.Fatalf("seed %d evict %d crash@%d: key %d = (%d, %v), want %d",
						seed, evict, crashAt, k, v, err, want)
				}
				if !present && err == nil && v != 0 {
					// Key present but we never committed it... unless it
					// was a pre-crash value the in-flight op would have
					// replaced; with inflightKey skipped above this is a
					// genuine resurrection.
					t.Fatalf("seed %d evict %d crash@%d: key %d resurrected with %d",
						seed, evict, crashAt, k, v)
				}
			}
			// The list must accept new writes after recovery.
			if err := h2.Insert(999, 1); err != nil {
				t.Fatalf("seed %d: post-recovery insert: %v", seed, err)
			}
		}
	}
}

// TestTortureNoLeaksAcrossManyCrashes: repeated crash/recover cycles with
// churn in between must not leak node memory: after deleting everything,
// only the sentinels remain allocated.
func TestTortureNoLeaksAcrossManyCrashes(t *testing.T) {
	e := newTortureEnv(t, 0)
	rng := rand.New(rand.NewSource(5))
	for cycle := 0; cycle < 8; cycle++ {
		h := e.list.NewHandle(int64(cycle))
		crashAt := rng.Intn(1200) + 100
		step := 0
		func() {
			defer func() { recover() }()
			e.dev.SetHook(func(op string, off nvram.Offset) {
				step++
				if step == crashAt {
					panic(crashPanic{})
				}
			})
			defer e.dev.SetHook(nil)
			for k := uint64(1); k <= 30; k++ {
				h.Insert(k, k)
			}
			for k := uint64(1); k <= 30; k++ {
				h.Delete(k)
			}
		}()
		e.dev.SetHook(nil)
		e.reopen(t)
	}
	// Final cleanup pass: delete any survivors, then account for memory.
	h := e.list.NewHandle(99)
	for k := uint64(1); k <= 30; k++ {
		h.Delete(k)
	}
	drain(e)
	blocks, _ := e.alloc.InUse()
	if blocks != 2 { // head + tail sentinels
		t.Fatalf("%d blocks live after full cleanup, want 2 (sentinels)", blocks)
	}
	e.checkStructure(t)
}
