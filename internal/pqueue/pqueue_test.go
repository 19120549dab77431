package pqueue

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

type qenv struct {
	dev     *nvram.Device
	pool    *core.Pool
	alloc   *alloc.Allocator
	q       *Queue
	poolReg nvram.Region
	aReg    nvram.Region
	roots   nvram.Region
	spec    []alloc.Class
}

const (
	qDescs   = 128
	qWords   = 4
	qHandles = 16
)

func newQEnv(t testing.TB, mode core.Mode) *qenv {
	t.Helper()
	e := &qenv{spec: []alloc.Class{{BlockSize: 64, Count: 4096}}}
	poolBytes := core.PoolSize(qDescs, qWords)
	aBytes := alloc.MetaSize(e.spec, qHandles)
	var opts []nvram.Option
	if mode == core.Volatile {
		opts = append(opts, nvram.WithVolatile())
	}
	e.dev = nvram.New(poolBytes+aBytes+1<<12, opts...)
	l := nvram.NewLayout(e.dev)
	e.poolReg = l.Carve(poolBytes)
	e.aReg = l.Carve(aBytes)
	e.roots = l.Carve(nvram.LineBytes)
	e.build(t, mode, false)
	return e
}

func (e *qenv) build(t testing.TB, mode core.Mode, recover bool) {
	t.Helper()
	var err error
	e.alloc, err = alloc.New(e.dev, e.aReg, e.spec, qHandles)
	if err != nil {
		t.Fatalf("alloc.New: %v", err)
	}
	e.pool, err = core.NewPool(core.Config{
		Device: e.dev, Region: e.poolReg,
		DescriptorCount: qDescs, WordsPerDescriptor: qWords,
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
	e.q, err = New(Config{Pool: e.pool, Allocator: e.alloc, Roots: e.roots})
	if err != nil {
		t.Fatalf("pqueue.New: %v", err)
	}
}

func (e *qenv) reopen(t testing.TB) {
	t.Helper()
	e.dev.SetHook(nil)
	e.dev.Crash()
	e.build(t, core.Persistent, true)
}

func TestFIFOOrder(t *testing.T) {
	for _, mode := range []core.Mode{core.Persistent, core.Volatile} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newQEnv(t, mode)
			h := e.q.NewHandle()
			if _, err := h.Dequeue(); !errors.Is(err, ErrEmpty) {
				t.Fatalf("Dequeue on empty: %v", err)
			}
			for v := uint64(1); v <= 100; v++ {
				if err := h.Enqueue(v); err != nil {
					t.Fatalf("Enqueue(%d): %v", v, err)
				}
			}
			if p, err := h.Peek(); err != nil || p != 1 {
				t.Fatalf("Peek = (%d, %v)", p, err)
			}
			if got := h.Len(); got != 100 {
				t.Fatalf("Len = %d", got)
			}
			for v := uint64(1); v <= 100; v++ {
				got, err := h.Dequeue()
				if err != nil || got != v {
					t.Fatalf("Dequeue = (%d, %v), want %d", got, err, v)
				}
			}
			if _, err := h.Dequeue(); !errors.Is(err, ErrEmpty) {
				t.Fatalf("drained queue: %v", err)
			}
		})
	}
}

func TestValueValidation(t *testing.T) {
	e := newQEnv(t, core.Persistent)
	h := e.q.NewHandle()
	if err := h.Enqueue(core.DirtyFlag); !errors.Is(err, ErrValueRange) {
		t.Fatalf("flagged value accepted: %v", err)
	}
}

func TestMemoryReclaimed(t *testing.T) {
	e := newQEnv(t, core.Persistent)
	h := e.q.NewHandle()
	base, _ := e.alloc.InUse() // the sentinel
	for round := 0; round < 5; round++ {
		for v := uint64(1); v <= 50; v++ {
			h.Enqueue(v)
		}
		if _, err := h.Drain(); err != nil {
			t.Fatalf("Drain: %v", err)
		}
	}
	e.pool.Epochs().Advance()
	e.pool.Epochs().Collect()
	blocks, _ := e.alloc.InUse()
	if blocks != base {
		t.Fatalf("%d blocks live after drain, want %d: dequeued nodes leaked", blocks, base)
	}
}

func TestPersistAcrossRestart(t *testing.T) {
	e := newQEnv(t, core.Persistent)
	h := e.q.NewHandle()
	for v := uint64(10); v <= 50; v += 10 {
		h.Enqueue(v)
	}
	h.Dequeue() // drop 10
	e.reopen(t)
	h2 := e.q.NewHandle()
	got, err := h2.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	want := []uint64{20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}

// Conservation and exactly-once under concurrency: P producers enqueue
// disjoint values, C consumers drain; every value arrives exactly once,
// and per-producer order is preserved.
func TestConcurrentProducersConsumers(t *testing.T) {
	e := newQEnv(t, core.Persistent)
	const producers = 3
	const consumers = 3
	const perP = 300

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := e.q.NewHandle()
			for i := 0; i < perP; i++ {
				v := uint64(p)<<32 | uint64(i+1)
				if err := h.Enqueue(v); err != nil {
					t.Errorf("Enqueue: %v", err)
					return
				}
			}
		}(p)
	}

	var mu sync.Mutex
	received := make(map[uint64]int)
	var cg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < consumers; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			h := e.q.NewHandle()
			for {
				v, err := h.Dequeue()
				if errors.Is(err, ErrEmpty) {
					select {
					case <-stop:
						// Final drain: the queue may still hold values
						// enqueued after our last look.
						for {
							v, err := h.Dequeue()
							if errors.Is(err, ErrEmpty) {
								return
							}
							mu.Lock()
							received[v]++
							mu.Unlock()
						}
					default:
						continue
					}
				}
				if err != nil {
					t.Errorf("Dequeue: %v", err)
					return
				}
				mu.Lock()
				received[v]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	cg.Wait()

	if len(received) != producers*perP {
		t.Fatalf("received %d distinct values, want %d", len(received), producers*perP)
	}
	for v, n := range received {
		if n != 1 {
			t.Fatalf("value %#x delivered %d times", v, n)
		}
	}
}

// Property: the queue matches a slice model under random op sequences.
func TestQuickAgainstSliceModel(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		e := newQEnv(t, core.Persistent)
		h := e.q.NewHandle()
		var model []uint64
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			if op%2 == 0 {
				v := uint64(rng.Int63()) & 0xffff
				if h.Enqueue(v) != nil {
					return false
				}
				model = append(model, v)
			} else {
				v, err := h.Dequeue()
				if len(model) == 0 {
					if !errors.Is(err, ErrEmpty) {
						return false
					}
				} else {
					if err != nil || v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		return h.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

type crashPanic struct{}

// Crash sweep over an enqueue: after recovery the value is enqueued
// exactly once or not at all, with no leaked node either way.
func TestCrashSweepEnqueue(t *testing.T) {
	for k := 1; ; k++ {
		e := newQEnv(t, core.Persistent)
		h := e.q.NewHandle()
		h.Enqueue(1)
		h.Enqueue(2)
		e.pool.Epochs().Advance()
		e.pool.Epochs().Collect()
		liveBefore, _ := e.alloc.InUse()

		step := 0
		completed := func() (done bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(crashPanic); !ok {
						panic(r)
					}
				}
			}()
			e.dev.SetHook(func(op string, off nvram.Offset) {
				step++
				if step == k {
					panic(crashPanic{})
				}
			})
			defer e.dev.SetHook(nil)
			if err := h.Enqueue(3); err != nil {
				t.Fatalf("Enqueue: %v", err)
			}
			e.pool.Epochs().Advance()
			e.pool.Epochs().Collect()
			return true
		}()

		e.reopen(t)
		h2 := e.q.NewHandle()
		got, err := h2.Drain()
		if err != nil {
			t.Fatalf("crash at %d: Drain: %v", k, err)
		}
		if len(got) < 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("crash at %d: pre-crash values broken: %v", k, got)
		}
		if len(got) == 3 && got[2] != 3 {
			t.Fatalf("crash at %d: torn tail value: %v", k, got)
		}
		if len(got) > 3 {
			t.Fatalf("crash at %d: duplicated enqueue: %v", k, got)
		}
		e.pool.Epochs().Advance()
		e.pool.Epochs().Collect()
		blocks, _ := e.alloc.InUse()
		// After draining everything only the sentinel remains; liveBefore
		// was sentinel+2 nodes.
		if blocks != liveBefore-2 {
			t.Fatalf("crash at %d: %d blocks live, want %d", k, blocks, liveBefore-2)
		}
		if completed {
			t.Logf("enqueue sweep covered %d crash points", k-1)
			return
		}
	}
}

// Crash sweep over a dequeue: the head value is consumed at most once
// (a crashed dequeue that committed leaves the value gone — the caller
// never saw it, which is the at-most-once semantics a persistent queue
// without consumer logging can give) and the structure stays sound.
func TestCrashSweepDequeue(t *testing.T) {
	for k := 1; ; k++ {
		e := newQEnv(t, core.Persistent)
		h := e.q.NewHandle()
		for v := uint64(1); v <= 3; v++ {
			h.Enqueue(v)
		}
		e.pool.Epochs().Advance()
		e.pool.Epochs().Collect()

		step := 0
		completed := func() (done bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(crashPanic); !ok {
						panic(r)
					}
				}
			}()
			e.dev.SetHook(func(op string, off nvram.Offset) {
				step++
				if step == k {
					panic(crashPanic{})
				}
			})
			defer e.dev.SetHook(nil)
			if v, err := h.Dequeue(); err != nil || v != 1 {
				t.Fatalf("Dequeue = (%d, %v)", v, err)
			}
			e.pool.Epochs().Advance()
			e.pool.Epochs().Collect()
			return true
		}()

		e.reopen(t)
		h2 := e.q.NewHandle()
		got, err := h2.Drain()
		if err != nil {
			t.Fatalf("crash at %d: Drain: %v", k, err)
		}
		switch len(got) {
		case 3:
			if got[0] != 1 {
				t.Fatalf("crash at %d: order broken: %v", k, got)
			}
		case 2:
			if got[0] != 2 || got[1] != 3 {
				t.Fatalf("crash at %d: wrong survivors: %v", k, got)
			}
		default:
			t.Fatalf("crash at %d: %v", k, got)
		}
		if completed {
			t.Logf("dequeue sweep covered %d crash points", k-1)
			return
		}
	}
}
