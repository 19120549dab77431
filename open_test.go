package pmwcas

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// firstOpener opens one structure on a store's shard 0 and returns the
// opened object and a writer for it, plus a reader of the keys (queue:
// values) a recovered image holds in that structure.
type firstOpener struct {
	name string
	open func(st *Store) (obj any, write func(k uint64) error, err error)
	keys func(ds *DurableState) []uint64
}

var firstOpeners = []firstOpener{
	{"skiplist", func(st *Store) (any, func(uint64) error, error) {
		l, err := st.SkipList()
		if err != nil {
			return nil, nil, err
		}
		return l, func(k uint64) error { return l.NewHandle(int64(k)).Insert(k, 10*k) }, nil
	}, func(ds *DurableState) (keys []uint64) {
		for _, e := range ds.SkipList {
			keys = append(keys, e.Key)
		}
		return keys
	}},
	{"bwtree", func(st *Store) (any, func(uint64) error, error) {
		tr, err := st.BwTree(BwTreeOptions{})
		if err != nil {
			return nil, nil, err
		}
		return tr, func(k uint64) error { return tr.NewHandle().Insert(k, 10*k) }, nil
	}, func(ds *DurableState) (keys []uint64) {
		for _, e := range ds.BwTree {
			keys = append(keys, e.Key)
		}
		return keys
	}},
	{"queue", func(st *Store) (any, func(uint64) error, error) {
		q, err := st.Queue()
		if err != nil {
			return nil, nil, err
		}
		return q, func(k uint64) error { return q.NewHandle().Enqueue(k) }, nil
	}, func(ds *DurableState) []uint64 { return slices.Clone(ds.Queue) }},
	{"hash", func(st *Store) (any, func(uint64) error, error) {
		ht, err := st.HashTable(HashTableOptions{})
		if err != nil {
			return nil, nil, err
		}
		return ht, func(k uint64) error { return ht.NewHandle().Insert(k, 10*k) }, nil
	}, func(ds *DurableState) (keys []uint64) {
		for _, e := range ds.Hash {
			keys = append(keys, e.Key)
		}
		return keys
	}},
	{"blob", func(st *Store) (any, func(uint64) error, error) {
		kv, err := st.BlobKV()
		if err != nil {
			return nil, nil, err
		}
		return kv, func(k uint64) error { return kv.NewHandle(int64(k)).Put([]byte{byte(k)}, []byte("v")) }, nil
	}, func(ds *DurableState) (keys []uint64) {
		for k := range ds.Blobs {
			keys = append(keys, uint64(k[0]))
		}
		return keys
	}},
}

// TestConcurrentFirstOpens opens each structure from eight goroutines at
// once on a fresh store, behind a barrier, and has each goroutine write
// one key through the object it got. One PMwCAS creates each structure,
// so every open either creates it or adopts the winner's, and every
// opener must get the one object the shard publishes; the blob layer's
// tag is written once. After Close, Crash and Recover the image must
// pass CheckInvariants with every write present.
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
	var tagStores atomic.Int64
	st.dev.SetHook(func(op string, off Offset) {
		if op == "store" && off == st.shards[0].tagWord {
			tagStores.Add(1)
		}
	})
	var start atomic.Bool
	errs := make(chan error, openers)
	objs := make([]any, openers)
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
			obj, write, err := o.open(st)
			objs[k-1] = obj
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
	st.dev.SetHook(nil)
	for i, obj := range objs {
		if obj != objs[0] {
			return fmt.Errorf("opener %d got another %s than opener 1", i+1, o.name)
		}
	}
	if want := map[bool]int64{true: 1}[o.name == "blob"]; tagStores.Load() != want {
		return fmt.Errorf("%d stores to the blob tag, want %d", tagStores.Load(), want)
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

// TestReopenSharesInstance: a second open of a shard's structure with the
// first's options returns the same object, and one whose options differ
// fails naming the field, whether it asks for the Bw-tree or hash table
// directly or through OpenIndex or the blob layer.
func TestReopenSharesInstance(t *testing.T) {
	for _, o := range firstOpeners {
		st, err := Create(Config{Size: 1 << 20, Descriptors: 64})
		if err != nil {
			t.Fatal(err)
		}
		a, _, err := o.open(st)
		if err != nil {
			t.Fatal(err)
		}
		if b, _, err := o.open(st); err != nil || b != a {
			t.Errorf("%s: reopen = (%p, %v), want the first open's %p", o.name, b, err, a)
		}
	}
	st, err := Create(Config{Size: 1 << 20, Descriptors: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Shard(0).OpenBlobKV("bwtree", IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.HashTable(HashTableOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string
		open  func() error
	}{
		{"BwTreeOptions.LeafCapacity 0; this one asks 8", func() error {
			_, err := st.BwTree(BwTreeOptions{LeafCapacity: 8})
			return err
		}},
		{"BwTreeOptions.MergeBelow 0; this one asks 3", func() error {
			_, err := st.Shard(0).OpenBlobKV("bwtree", IndexOptions{BwTree: BwTreeOptions{MergeBelow: 3}})
			return err
		}},
		{"HashTableOptions.SlotsPerBucket 0; this one asks 4", func() error {
			_, err := st.HashTable(HashTableOptions{SlotsPerBucket: 4})
			return err
		}},
		{"HashTableOptions.SlotsPerBucket 0; this one asks 4", func() error {
			_, err := st.OpenIndex("hash", IndexOptions{Hash: HashTableOptions{SlotsPerBucket: 4}})
			return err
		}},
	} {
		if err := tc.open(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("open with other options = %v, want an error naming %s", err, tc.field)
		}
	}
}

// TestRecoverOpensFreshInstance: Recover replaces every shard's
// substrates, so an open after Crash and Recover returns a new object
// over the recovered pool, not the one opened before the crash.
func TestRecoverOpensFreshInstance(t *testing.T) {
	for _, o := range firstOpeners {
		st, err := Create(Config{Size: 1 << 20, Descriptors: 64})
		if err != nil {
			t.Fatal(err)
		}
		before, write, err := o.open(st)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(1); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.Crash(); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recover(); err != nil {
			t.Fatal(err)
		}
		after, write, err := o.open(st)
		if err != nil {
			t.Fatal(err)
		}
		if after == before {
			t.Errorf("%s: the open after Recover returned the object opened before the crash", o.name)
		}
		if err := write(2); err != nil {
			t.Errorf("%s: write through the recovered object: %v", o.name, err)
		}
	}
}
