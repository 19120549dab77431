package pmwcas

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// firstOpener opens one index on a store and returns a writer for the
// opened object, plus a reader of the keys (queue: values) a recovered
// image holds in that index.
type firstOpener struct {
	name string
	open func(st *Store) (write func(k uint64) error, err error)
	keys func(ds *DurableState) []uint64
}

var firstOpeners = []firstOpener{
	{"skiplist", func(st *Store) (func(uint64) error, error) {
		l, err := st.SkipList()
		if err != nil {
			return nil, err
		}
		return func(k uint64) error { return l.NewHandle(int64(k)).Insert(k, 10*k) }, nil
	}, func(ds *DurableState) (keys []uint64) {
		for _, e := range ds.SkipList {
			keys = append(keys, e.Key)
		}
		return keys
	}},
	{"bwtree", func(st *Store) (func(uint64) error, error) {
		tr, err := st.BwTree(BwTreeOptions{})
		if err != nil {
			return nil, err
		}
		return func(k uint64) error { return tr.NewHandle().Insert(k, 10*k) }, nil
	}, func(ds *DurableState) (keys []uint64) {
		for _, e := range ds.BwTree {
			keys = append(keys, e.Key)
		}
		return keys
	}},
	{"queue", func(st *Store) (func(uint64) error, error) {
		q, err := st.Queue()
		if err != nil {
			return nil, err
		}
		return func(k uint64) error { return q.NewHandle().Enqueue(k) }, nil
	}, func(ds *DurableState) []uint64 { return slices.Clone(ds.Queue) }},
	{"hash", func(st *Store) (func(uint64) error, error) {
		ht, err := st.HashTable(HashTableOptions{})
		if err != nil {
			return nil, err
		}
		return func(k uint64) error { return ht.NewHandle().Insert(k, 10*k) }, nil
	}, func(ds *DurableState) (keys []uint64) {
		for _, e := range ds.Hash {
			keys = append(keys, e.Key)
		}
		return keys
	}},
}

// TestConcurrentFirstOpens opens each index from eight goroutines at once
// on a fresh store, behind a barrier, and has each goroutine write one
// key through its own object. One PMwCAS creates each index, so every
// open either creates it or adopts the winner's: after Close, Crash and
// Recover the image must pass CheckInvariants with every write present.
// A round that has not finished by its deadline fails the test instead
// of hanging it, since a broken creation can leave a writer spinning.
func TestConcurrentFirstOpens(t *testing.T) {
	const openers, rounds = 8, 50
	// One P per opener: with more Ps than CPUs the OS preempts opens
	// midway, so they overlap even on a two-CPU machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(openers))
	for _, o := range firstOpeners {
		t.Run(o.name, func(t *testing.T) {
			for r := 0; r < rounds; r++ {
				if err := firstOpenRound(o, openers); err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
			}
		})
	}
}

// firstOpenRound runs one round of TestConcurrentFirstOpens.
func firstOpenRound(o firstOpener, openers int) error {
	st, err := Create(Config{Size: 1 << 20, Descriptors: 256})
	if err != nil {
		return err
	}
	var start atomic.Bool
	errs := make(chan error, openers)
	var wg sync.WaitGroup
	for i := 0; i < openers; i++ {
		wg.Add(1)
		go func(k uint64) {
			defer wg.Done()
			// A spinning barrier: the goroutines already running when it
			// opens leave it together, so their opens overlap.
			for !start.Load() {
				runtime.Gosched()
			}
			write, err := o.open(st)
			if err == nil {
				err = write(k)
			}
			if err != nil {
				errs <- fmt.Errorf("opener %d: %w", k, err)
			}
		}(uint64(i + 1))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	start.Store(true)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("openers still running after 30s")
	}
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	if err := st.Crash(); err != nil {
		return err
	}
	if _, err := st.Recover(); err != nil {
		return err
	}
	ds, err := st.CheckInvariants(CheckOptions{})
	if err != nil {
		return err
	}
	got := o.keys(ds)
	slices.Sort(got)
	want := make([]uint64, openers)
	for i := range want {
		want[i] = uint64(i + 1)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("recovered %s holds %v, want %v", o.name, got, want)
	}
	return nil
}
