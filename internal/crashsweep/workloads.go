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
	copts     pmwcas.CheckOptions
	newOracle func() oracle
	run       func(st *pmwcas.Store, o oracle, opt Options) error
}

// wordSpec is a word-index workload as data. Each step draws a key from
// [1, keys] and one of six lots: the first puts are upserts, the next
// dels deletes, the rest read-backs checked against the model.
type wordSpec struct {
	index      string // Store.OpenIndex name
	iopts      pmwcas.IndexOptions
	keys       int
	puts, dels int
	state      stateFunc
}

func wordWorkload(name string, shards int, s wordSpec) workload {
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
// over 96 keys force many splits and several directory doublings — the
// structure-changing crash points — alongside the plain
// insert/update/delete descriptor paths.
var hashSpec = wordSpec{
	index: "hash", keys: 96, puts: 4, dels: 1,
	iopts: pmwcas.IndexOptions{Hash: pmwcas.HashTableOptions{SlotsPerBucket: 4}},
	state: func(ds *pmwcas.DurableState) []pmwcas.IndexEntry { return ds.Hash },
}

var workloads = []workload{
	// A small key space, so most operations hit existing towers (the
	// delete/unlink and update paths, not just fresh inserts).
	wordWorkload("skiplist", 1, wordSpec{
		index: "skiplist", keys: 48, puts: 3, dels: 2,
		state: func(ds *pmwcas.DurableState) []pmwcas.IndexEntry { return ds.SkipList },
	}),
	// Deliberately tiny pages and aggressive maintenance thresholds, so a
	// few hundred upsert-heavy operations force every SMO — consolidation,
	// splits (including root splits), and merges — under the sweep.
	wordWorkload("bwtree", 1, wordSpec{
		index: "bwtree", keys: 96, puts: 4, dels: 1,
		iopts: pmwcas.IndexOptions{BwTree: pmwcas.BwTreeOptions{
			LeafCapacity: 8, InnerCapacity: 8, ConsolidateAfter: 3, MergeBelow: 3,
		}},
		state: func(ds *pmwcas.DurableState) []pmwcas.IndexEntry { return ds.BwTree },
	}),
	wordWorkload("hashtable", 1, hashSpec),
	{
		name:      "pqueue",
		newOracle: func() oracle { return newQueueOracle() },
		run:       runPQueue,
	},
	{
		name:      "blobkv",
		copts:     pmwcas.CheckOptions{Blob: true},
		newOracle: func() oracle { return newBlobOracle() },
		run:       runBlobKV,
	},
	{
		name:      "server",
		copts:     pmwcas.CheckOptions{Blob: true},
		newOracle: func() oracle { return newBlobOracle() },
		run:       runServer,
	},
	// The hash mix across a two-shard store, each key routed to its home
	// shard exactly as the server does. Beyond the per-shard crash points
	// (each shard's splits, doublings, and reclaims now interleave in one
	// device trace), the sweeper's check adds the cross-shard ones: every
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
func runWords(st *pmwcas.Store, kv *kvOracle, opt Options, s wordSpec) error {
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
			kv.begin(kvOp{kvPut, key, val})
			err := h.Insert(key, val)
			if errors.Is(err, pmwcas.ErrKeyExists) {
				err = h.Update(key, val)
			}
			kv.commit(err == nil)
			if err != nil {
				return fmt.Errorf("put %#x: %w", key, err)
			}
		case lot < s.puts+s.dels:
			kv.begin(kvOp{kvDelete, key, 0})
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

// blobKeys is the key pool for the blob workloads (keycodec limits keys
// to 7 bytes). Small enough that puts frequently overwrite — the
// free-old-record path — and deletes frequently hit.
func blobKeys() []string {
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	return keys
}

// blobClient is what the blob mix needs of its target: a blobkv handle
// in process, or the wire client in front of a server.
type blobClient interface {
	Put(key, val []byte) error
	Get(key []byte) ([]byte, error)
	Delete(key []byte) error
}

func runBlobKV(st *pmwcas.Store, o oracle, opt Options) error {
	kv, err := st.BlobKV()
	if err != nil {
		return err
	}
	return runBlobOps(kv.NewHandle(opt.Seed), pmwcas.ErrBlobNotFound, o.(*blobOracle), opt)
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
	if err := runBlobOps(c, wire.ErrNotFound, o.(*blobOracle), opt); err != nil {
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

// runBlobOps is the blob mix: puts (fresh or overwrite, 0-95 bytes),
// deletes and read-backs over blobKeys, against either client.
func runBlobOps(c blobClient, notFound error, bo *blobOracle, opt Options) error {
	rng := rand.New(rand.NewSource(opt.Seed))
	keys := blobKeys()
	for i := 0; i < opt.Ops; i++ {
		key := keys[rng.Intn(len(keys))]
		switch rng.Intn(6) {
		case 0, 1, 2, 3:
			val := make([]byte, rng.Intn(96))
			rng.Read(val)
			bo.begin(blobOp{key: key, val: val})
			err := c.Put([]byte(key), val)
			bo.commit(err == nil)
			if err != nil {
				return fmt.Errorf("put %q: %w", key, err)
			}
		case 4:
			bo.begin(blobOp{del: true, key: key})
			err := c.Delete([]byte(key))
			bo.commit(err == nil)
			if err != nil && !errors.Is(err, notFound) {
				return fmt.Errorf("delete %q: %w", key, err)
			}
		case 5:
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
