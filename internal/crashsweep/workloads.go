package crashsweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"pmwcas"
	"pmwcas/internal/pqueue"
	"pmwcas/internal/server"
	"pmwcas/internal/wire"
)

// A workload drives one index (or the whole server stack) through a
// deterministic trace of mutations, reporting every acknowledged effect
// to its oracle.
type workload struct {
	name      string
	shards    int // store shards the workload runs over (0 = 1)
	newOracle func() oracle
	run       func(st *pmwcas.Store, o oracle, opt Options) error
}

// mixSpec is a workload's op mix as data. Each step draws a key from
// keys of them and one of six lots: the first puts are upserts, the next
// dels deletes, the rest read-backs checked against the model.
type mixSpec struct {
	index      string // Store.OpenIndex or Shard.OpenBlobKV name
	iopts      pmwcas.IndexOptions
	keys       int
	puts, dels int
	state      stateFunc // word workloads: the index's recovered entries
}

// blobSpec is the skip-list and server blob mix: few enough keys that
// puts frequently overwrite — the free-old-record path — and deletes
// frequently hit.
var blobSpec = mixSpec{index: "skiplist", keys: 12, puts: 4, dels: 1}

// blobWorkload is a blob mix over one index's blob layer.
func blobWorkload(name string, s mixSpec) workload {
	return workload{
		name:      name,
		newOracle: func() oracle { return newBlobOracle() },
		run: func(st *pmwcas.Store, o oracle, opt Options) error {
			kv, err := st.Shard(0).OpenBlobKV(s.index, s.iopts)
			if err != nil {
				return err
			}
			return runBlobOps(kv.NewHandle(opt.Seed), s, pmwcas.ErrNotFound, o.(*blobOracle), opt)
		},
	}
}

func wordWorkload(name string, shards int, s mixSpec) workload {
	return workload{
		name:      name,
		shards:    shards,
		newOracle: func() oracle { return newKVOracle(s.state) },
		run: func(st *pmwcas.Store, o oracle, opt Options) error {
			return runWords(st, o.(*kvOracle), opt, s)
		},
	}
}

// hashSpec uses deliberately tiny buckets so a few hundred operations
// over 96 keys force many splits — the structure-changing crash points —
// alongside the plain insert/update/delete descriptor paths.
var hashSpec = mixSpec{
	index: "hash", keys: 96, puts: 4, dels: 1,
	iopts: pmwcas.IndexOptions{Hash: pmwcas.HashTableOptions{SlotsPerBucket: 4}},
	state: func(ds *pmwcas.DurableState) []pmwcas.IndexEntry { return ds.Hash },
}

// bwtreeOpts uses deliberately tiny pages and aggressive maintenance
// thresholds, so a few hundred upsert-heavy operations force every SMO —
// consolidation, splits (including root splits), and merges — under the
// sweep.
var bwtreeOpts = pmwcas.BwTreeOptions{LeafCapacity: 8, InnerCapacity: 8, ConsolidateAfter: 3, MergeBelow: 3}

var workloads = []workload{
	// A small key space, so most operations hit existing towers (the
	// delete/unlink and update paths, not just fresh inserts).
	wordWorkload("skiplist", 1, mixSpec{
		index: "skiplist", keys: 48, puts: 3, dels: 2,
		state: func(ds *pmwcas.DurableState) []pmwcas.IndexEntry { return ds.SkipList },
	}),
	wordWorkload("bwtree", 1, mixSpec{
		index: "bwtree", keys: 96, puts: 4, dels: 1,
		iopts: pmwcas.IndexOptions{BwTree: bwtreeOpts},
		state: func(ds *pmwcas.DurableState) []pmwcas.IndexEntry { return ds.BwTree },
	}),
	wordWorkload("hashtable", 1, hashSpec),
	{
		name:      "pqueue",
		newOracle: func() oracle { return newQueueOracle() },
		run:       runPQueue,
	},
	blobWorkload("blobkv", blobSpec),
	// The blob mix over the other two indexes. The Bw-tree's tiny pages,
	// twice the keys and an even put/delete mix put owned update and
	// delete deltas through consolidation, splits and merges (at -ops 100
	// -seed 1: a leaf split and a merge); the hash table's tiny buckets put
	// owned slots through bucket splits.
	blobWorkload("blobkv-bwtree", mixSpec{
		index: "bwtree", iopts: pmwcas.IndexOptions{BwTree: bwtreeOpts}, keys: 24, puts: 2, dels: 2,
	}),
	blobWorkload("blobkv-hash", mixSpec{index: "hash", iopts: hashSpec.iopts, keys: 12, puts: 4, dels: 1}),
	{
		name:      "server",
		newOracle: func() oracle { return newBlobOracle() },
		run:       runServer,
	},
	// The hash mix across a two-shard store, each key routed to its home
	// shard exactly as the server does. Beyond the per-shard crash points
	// (each shard's bucket splits now interleave in one device trace), the
	// sweeper's check adds the cross-shard ones: every
	// clone is additionally crashed *between* shard recoveries and
	// re-recovered from scratch.
	wordWorkload("sharded", 2, hashSpec),
}

// Names lists the workloads in sweep order.
func Names() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWords drives one word-index workload. OpenIndex routes across the
// store's shards, so the same loop serves one shard or several.
func runWords(st *pmwcas.Store, kv *kvOracle, opt Options, s mixSpec) error {
	mint, err := st.OpenIndex(s.index, s.iopts)
	if err != nil {
		return err
	}
	h := mint(opt.Seed)
	rng := rand.New(rand.NewSource(opt.Seed))
	for i := 0; i < opt.Ops; i++ {
		key := uint64(rng.Intn(s.keys)) + 1
		switch lot := rng.Intn(6); {
		case lot < s.puts: // upsert
			val := uint64(rng.Intn(1<<20)) + 1
			kv.begin(kvOp{key: key, val: val})
			err := h.Insert(key, val)
			if errors.Is(err, pmwcas.ErrKeyExists) {
				err = h.Update(key, val)
			}
			kv.commit(err == nil)
			if err != nil {
				return fmt.Errorf("put %#x: %w", key, err)
			}
		case lot < s.puts+s.dels:
			kv.begin(kvOp{del: true, key: key})
			err := h.Delete(key)
			kv.commit(err == nil)
			if err != nil && !errors.Is(err, pmwcas.ErrNotFound) {
				return fmt.Errorf("delete %#x: %w", key, err)
			}
		default: // read-back: a live linearizability probe against the model
			got, err := h.Get(key)
			want, ok := kv.expect(key)
			if errors.Is(err, pmwcas.ErrNotFound) {
				if ok {
					return fmt.Errorf("get %#x: not found, model has %#x", key, want)
				}
			} else if err != nil {
				return fmt.Errorf("get %#x: %w", key, err)
			} else if !ok || got != want {
				return fmt.Errorf("get %#x = %#x, model has %#x (present %v)", key, got, want, ok)
			}
		}
	}
	return nil
}

func runPQueue(st *pmwcas.Store, o oracle, opt Options) error {
	qo := o.(*queueOracle)
	q, err := st.Queue()
	if err != nil {
		return err
	}
	h := q.NewHandle()
	rng := rand.New(rand.NewSource(opt.Seed))
	for i := 0; i < opt.Ops; i++ {
		if rng.Intn(3) < 2 { // enqueue-biased so the queue grows
			val := uint64(rng.Intn(1<<20)) + 1
			qo.begin(queueOp{enqueue: true, val: val})
			err := h.Enqueue(val)
			qo.commitEnqueue(err == nil)
			if err != nil {
				return fmt.Errorf("enqueue %#x: %w", val, err)
			}
		} else {
			qo.begin(queueOp{})
			got, err := h.Dequeue()
			if err != nil && !errors.Is(err, pqueue.ErrEmpty) {
				return fmt.Errorf("dequeue: %w", err)
			}
			if cerr := qo.commitDequeue(err == nil, got); cerr != nil {
				return cerr
			}
		}
	}
	return nil
}

// blobClient is what the blob mix needs of its target: a blobkv handle
// in process, or the wire client in front of a server.
type blobClient interface {
	Put(key, val []byte) error
	Get(key []byte) ([]byte, error)
	Delete(key []byte) error
}

// runServer drives the same blob mix through the full network stack: a
// live Server over the store, one TCP connection, requests via the wire
// client. Crash points fire on the server's connection goroutine while
// the driver blocks on the response — the oracle mutex is what makes the
// hook's snapshot safe.
func runServer(st *pmwcas.Store, o oracle, opt Options) error {
	srv, err := server.New(server.Config{Store: st, MaxConns: 1})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		return <-serveErr
	}

	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		shutdown()
		return err
	}
	if err := runBlobOps(c, blobSpec, wire.ErrNotFound, o.(*blobOracle), opt); err != nil {
		c.Close()
		shutdown()
		return err
	}
	if err := c.Close(); err != nil {
		shutdown()
		return err
	}
	// Shutdown before the harness's final crash check: Store.Crash
	// requires quiescence, and drained connections return every handle.
	return shutdown()
}

// runBlobOps drives a blob mix against either client: puts (fresh or
// overwrite, 0-95 bytes), deletes and read-backs over s.keys keys
// (keycodec limits them to 7 bytes).
func runBlobOps(c blobClient, s mixSpec, notFound error, bo *blobOracle, opt Options) error {
	rng := rand.New(rand.NewSource(opt.Seed))
	keys := make([]string, s.keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	for i := 0; i < opt.Ops; i++ {
		key := keys[rng.Intn(len(keys))]
		switch lot := rng.Intn(6); {
		case lot < s.puts:
			val := make([]byte, rng.Intn(96))
			rng.Read(val)
			bo.begin(blobOp{key: key, val: val})
			err := c.Put([]byte(key), val)
			bo.commit(err == nil)
			if err != nil {
				return fmt.Errorf("put %q: %w", key, err)
			}
		case lot < s.puts+s.dels:
			bo.begin(blobOp{del: true, key: key})
			err := c.Delete([]byte(key))
			bo.commit(err == nil)
			if err != nil && !errors.Is(err, notFound) {
				return fmt.Errorf("delete %q: %w", key, err)
			}
		default:
			got, err := c.Get([]byte(key))
			want, ok := bo.expect(key)
			if errors.Is(err, notFound) {
				if ok {
					return fmt.Errorf("get %q: not found, model has %d bytes", key, len(want))
				}
			} else if err != nil {
				return fmt.Errorf("get %q: %w", key, err)
			} else if !ok || !bytes.Equal(got, want) {
				return fmt.Errorf("get %q = %x, model %x (present %v)", key, got, want, ok)
			}
		}
	}
	return nil
}
