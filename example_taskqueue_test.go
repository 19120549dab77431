package pmwcas_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pmwcas"
)

// A crash-surviving work queue: the PMwCAS primitive applied beyond
// indexing. Producers enqueue job IDs, workers consume them, the power
// fails mid-stream, and after recovery not a single accepted job is lost
// or duplicated in the queue.
func Example_taskQueue() {
	store, err := pmwcas.Create(pmwcas.Config{Size: 16 << 20})
	if err != nil {
		panic(err)
	}
	q, err := store.Queue()
	if err != nil {
		panic(err)
	}

	// Phase 1: producers race to enqueue 3,000 jobs while workers drain
	// 1,800 of them.
	const producers = 3
	const jobsPer = 1000
	const worked = 1800
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := q.NewHandle()
			for j := 0; j < jobsPer; j++ {
				id := uint64(p*jobsPer + j + 1)
				if err := h.Enqueue(id); err != nil {
					panic(err)
				}
			}
		}(p)
	}
	processed := make(map[uint64]bool)
	var mu sync.Mutex
	var cg sync.WaitGroup
	var tickets atomic.Int64 // one per job the workers may take
	for w := 0; w < 2; w++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			h := q.NewHandle()
			for tickets.Add(1) <= worked {
				id, err := h.Dequeue()
				for errors.Is(err, pmwcas.ErrQueueEmpty) {
					id, err = h.Dequeue()
				}
				if err != nil {
					panic(err)
				}
				mu.Lock()
				processed[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	cg.Wait()
	fmt.Printf("workers processed %d jobs; backlog remains in the queue\n", len(processed))

	// Phase 2: the power fails with the backlog enqueued.
	if err := store.Crash(); err != nil {
		panic(err)
	}
	if _, err := store.Recover(); err != nil {
		panic(err)
	}
	q2, err := store.Queue()
	if err != nil {
		panic(err)
	}

	// Phase 3: drain the backlog; every job appears exactly once across
	// the two lifetimes.
	h := q2.NewHandle()
	backlog, err := h.Drain()
	if err != nil {
		panic(err)
	}
	for _, id := range backlog {
		if processed[id] {
			panic(fmt.Sprintf("job %d delivered twice", id))
		}
		processed[id] = true
	}
	fmt.Printf("recovered backlog of %d jobs after the crash\n", len(backlog))
	fmt.Printf("%d of %d accepted jobs accounted for, each exactly once\n", len(processed), producers*jobsPer)
	// Output:
	// workers processed 1800 jobs; backlog remains in the queue
	// recovered backlog of 1200 jobs after the crash
	// 3000 of 3000 accepted jobs accounted for, each exactly once
}
