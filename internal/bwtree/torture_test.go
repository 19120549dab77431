package bwtree

import (
	"errors"
	"math/rand"
	"testing"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

// newTortureEnv builds a persistent tree environment, optionally with
// opportunistic cache-line eviction.
func newTortureEnv(t testing.TB, evict int) *tenv {
	t.Helper()
	e := &tenv{spec: btSpec(), smo: SMOPMwCAS, mode: core.Persistent}
	poolBytes := core.PoolSize(btDescs, btWords)
	aBytes := alloc.MetaSize(e.spec, btHandles)
	opts := []nvram.Option{}
	if evict > 0 {
		opts = append(opts, nvram.WithEviction(evict))
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
		Mode: core.Persistent, Allocator: e.alloc,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	e.cfg = Config{
		Pool: e.pool, Allocator: e.alloc,
		Mapping:      e.mapReg,
		SMO:          SMOPMwCAS,
		LeafCapacity: 16, InnerCapacity: 8, ConsolidateAfter: 4,
		MergeBelow: 4,
	}
	e.tree, err = New(e.cfg)
	if err != nil {
		t.Fatalf("bwtree.New: %v", err)
	}
	return e
}

// TestTortureRandomCrashes: random mutations (spanning consolidations,
// splits, and merges) with a random-step crash, recovery, and full
// structural + semantic validation.
func TestTortureRandomCrashes(t *testing.T) {
	for _, evict := range []int{0, 5} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed * 23))
			e := newTortureEnv(t, evict)
			h := e.tree.NewHandle()

			expect := map[uint64]uint64{}
			var inflightKey uint64

			crashAt := rng.Intn(6000) + 100
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
				for op := 0; op < 120; op++ {
					k := uint64(rng.Intn(80) + 1)
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
			h2 := e.tree.NewHandle()
			for k := uint64(1); k <= 80; k++ {
				if k == inflightKey {
					continue
				}
				v, err := h2.Get(k)
				want, present := expect[k]
				if present && (err != nil || v != want) {
					t.Fatalf("seed %d evict %d crash@%d: key %d = (%d, %v), want %d",
						seed, evict, crashAt, k, v, err, want)
				}
				if !present && err == nil {
					t.Fatalf("seed %d evict %d crash@%d: key %d resurrected with %d",
						seed, evict, crashAt, k, v)
				}
			}
			// Fully operational after recovery: drive it through more SMOs.
			for k := uint64(200); k < 260; k++ {
				if err := h2.Insert(k, k); err != nil {
					t.Fatalf("seed %d: post-recovery Insert(%d): %v", seed, k, err)
				}
			}
			e.checkStructure(t)
		}
	}
}

// TestTortureRepeatedCrashCycles drives the same tree through many
// crash/recover cycles, each interrupting fresh churn; the tree must
// remain structurally sound and hold exactly the committed keys.
func TestTortureRepeatedCrashCycles(t *testing.T) {
	e := newTortureEnv(t, 0)
	rng := rand.New(rand.NewSource(77))
	committed := map[uint64]bool{}
	for cycle := 0; cycle < 10; cycle++ {
		h := e.tree.NewHandle()
		base := uint64(cycle * 100)
		var inflight uint64
		crashAt := rng.Intn(3000) + 50
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
			for i := uint64(1); i <= 50; i++ {
				inflight = base + i
				if err := h.Insert(base+i, base+i); err == nil || errors.Is(err, ErrKeyExists) {
					committed[base+i] = true
				}
				inflight = 0
			}
		}()
		e.dev.SetHook(nil)
		delete(committed, 0)
		e.reopen(t)
		e.checkStructure(t)
		h2 := e.tree.NewHandle()
		for k := range committed {
			if k == inflight {
				continue
			}
			if v, err := h2.Get(k); err != nil || v != k {
				t.Fatalf("cycle %d: committed key %d = (%d, %v)", cycle, k, v, err)
			}
		}
	}
}
