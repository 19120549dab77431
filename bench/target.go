package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"pmwcas"
	"pmwcas/internal/core"
	"pmwcas/internal/metrics"
	"pmwcas/internal/server"
	"pmwcas/internal/wire"
)

// serverConns is pmwcas-server's default -maxconns; the store's handle
// budget is sized from it exactly as cmd/pmwcas-server does.
const serverConns = 64

// flushLatency is the flush policy: every cache-line write-back costs this
// much simulated time, cmd/experiments' default device.
const flushLatency = 100 * time.Nanosecond

func storeConfig(w *workload) pmwcas.Config {
	return pmwcas.Config{
		Size:         256 << 20,
		Shards:       w.shards,
		Descriptors:  4096,
		MaxHandles:   4*serverConns + 8,
		FlushLatency: flushLatency,
	}
}

// kv is one goroutine's handle onto the workload's index, in tags: what the
// in-process clients drive, what preload writes through and what the
// durability check reads through.
type kv interface {
	get(key int) (tag, bool, error)
	put(key int, t tag) error
	del(key int) (bool, error)
	// scan reads up to limit entries from key upwards in key order and
	// returns how many it saw.
	scan(from, limit int) (int, error)
}

// blobKV drives BlobKV handles, one per shard, routed as the server routes.
type blobKV struct {
	store *pmwcas.Store
	keys  *keyTable
	hs    []*pmwcas.BlobKVHandle
	val   []byte
	buf   []byte
}

func (b *blobKV) handle(key int) *pmwcas.BlobKVHandle {
	return b.hs[b.store.ShardForKey(b.keys.words[key])]
}

func (b *blobKV) get(key int) (tag, bool, error) {
	v, err := b.handle(key).GetAppend(b.keys.bytes[key], b.buf[:0])
	if errors.Is(err, pmwcas.ErrBlobNotFound) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	b.buf = v
	t, ok := valueTag(v)
	if !ok {
		return 0, true, fmt.Errorf("value of %d bytes, want %d", len(v), valueLen)
	}
	return t, true, nil
}

func (b *blobKV) put(key int, t tag) error {
	setValueTag(b.val, t)
	return b.handle(key).Put(b.keys.bytes[key], b.val)
}

func (b *blobKV) del(key int) (bool, error) {
	err := b.handle(key).Delete(b.keys.bytes[key])
	if errors.Is(err, pmwcas.ErrBlobNotFound) {
		return false, nil
	}
	return err == nil, err
}

var maxKeyBytes = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// scan walks the shard that owns the start key (the cross-shard merge is the
// server's; in-process scans are the ladder's single-shard rung).
func (b *blobKV) scan(from, limit int) (int, error) {
	n, prev := 0, from-1
	var bad error
	err := b.handle(from).Scan(b.keys.bytes[from], maxKeyBytes, func(k, v []byte) bool {
		if n >= limit {
			return false
		}
		var ok bool
		if prev, ok = scannedEntry(prev, k, v); !ok {
			bad = fmt.Errorf("scan from %d yielded bad entry %q", from, k)
			return false
		}
		n++
		return true
	})
	if bad != nil {
		return n, bad
	}
	return n, err
}

// wordIndex is the contract the three word indexes' handles share.
type wordIndex interface {
	Get(key uint64) (uint64, error)
	Insert(key, value uint64) error
	Update(key, value uint64) error
	Delete(key uint64) error
}

// wordKV drives a word index handle: the tag is the value.
type wordKV struct {
	keys     *keyTable
	h        wordIndex
	notFound error
	exists   error
	scanFn   func(lo, hi uint64, fn func(key, val uint64) bool) error
}

func (w *wordKV) get(key int) (tag, bool, error) {
	v, err := w.h.Get(w.keys.words[key])
	if errors.Is(err, w.notFound) {
		return 0, false, nil
	}
	return v, err == nil, err
}

// put upserts the way the server's word backends do: update, and on a miss
// insert, retrying lost races.
func (w *wordKV) put(key int, t tag) error {
	k := w.keys.words[key]
	for {
		err := w.h.Update(k, t)
		if !errors.Is(err, w.notFound) {
			return err
		}
		err = w.h.Insert(k, t)
		if !errors.Is(err, w.exists) {
			return err
		}
	}
}

func (w *wordKV) del(key int) (bool, error) {
	err := w.h.Delete(w.keys.words[key])
	if errors.Is(err, w.notFound) {
		return false, nil
	}
	return err == nil, err
}

var errNoScan = errors.New("index has no ordered scan")

func (w *wordKV) scan(from, limit int) (int, error) {
	if w.scanFn == nil {
		return 0, errNoScan
	}
	n := 0
	err := w.scanFn(w.keys.words[from], w.keys.words[len(w.keys.words)-1], func(_, _ uint64) bool {
		if n >= limit {
			return false
		}
		n++
		return true
	})
	return n, err
}

// target is the system under test for one workload: the store, its index
// opened, and for net workloads the server listening on loopback.
type target struct {
	w     *workload
	keys  *keyTable
	store *pmwcas.Store
	pools []*core.Pool // per shard, for the descriptor-headroom gauge

	srv      *server.Server
	addr     string
	serveErr chan error
}

// newKV mints one goroutine's handle set on the store's current substrates:
// blob values over the skiplist, or the word index itself.
func (t *target) newKV(seed int64) (kv, error) {
	if t.w.index != "skiplist" {
		return newWordKV(t.store, t.keys, t.w.index, seed)
	}
	b := &blobKV{store: t.store, keys: t.keys, val: newValue()}
	for i := 0; i < t.store.ShardCount(); i++ {
		s, err := t.store.Shard(i).BlobKV()
		if err != nil {
			return nil, err
		}
		b.hs = append(b.hs, s.NewHandle(seed))
	}
	return b, nil
}

// newWordKV opens shard 0's word index by name and mints a handle on it.
func newWordKV(store *pmwcas.Store, keys *keyTable, index string, seed int64) (*wordKV, error) {
	switch index {
	case "skiplist":
		list, err := store.SkipList()
		if err != nil {
			return nil, err
		}
		h := list.NewHandle(seed)
		return &wordKV{keys: keys, h: h, notFound: pmwcas.ErrSkipListNotFound, exists: pmwcas.ErrSkipListKeyExists,
			scanFn: func(lo, hi uint64, fn func(k, v uint64) bool) error {
				return h.Scan(lo, hi, func(e pmwcas.SkipListEntry) bool { return fn(e.Key, e.Value) })
			}}, nil
	case "bwtree":
		tree, err := store.BwTree(pmwcas.BwTreeOptions{})
		if err != nil {
			return nil, err
		}
		h := tree.NewHandle()
		return &wordKV{keys: keys, h: h, notFound: pmwcas.ErrBwTreeNotFound, exists: pmwcas.ErrBwTreeKeyExists,
			scanFn: func(lo, hi uint64, fn func(k, v uint64) bool) error {
				return h.Scan(lo, hi, func(e pmwcas.BwTreeEntry) bool { return fn(e.Key, e.Value) })
			}}, nil
	case "hash":
		tab, err := store.HashTable(pmwcas.HashTableOptions{})
		if err != nil {
			return nil, err
		}
		return &wordKV{keys: keys, h: tab.NewHandle(), notFound: pmwcas.ErrHashNotFound, exists: pmwcas.ErrHashKeyExists}, nil
	}
	return nil, fmt.Errorf("unknown index %q", index)
}

// setUp is what setup_s times: Create, open the index, preload every key
// under the preloader's tag, and for net workloads start the server.
func setUp(w *workload, keys *keyTable, last []uint64) (*target, error) {
	metrics.Enable(true)
	metrics.TraceEnable(true) // as pmwcas-server ships
	store, err := pmwcas.Create(storeConfig(w))
	if err != nil {
		return nil, err
	}
	t := &target{w: w, keys: keys, store: store}
	for i := 0; i < store.ShardCount(); i++ {
		t.pools = append(t.pools, store.Shard(i).PMwCASHandle().Pool())
	}
	h, err := t.newKV(1)
	if err != nil {
		return nil, err
	}
	// A workload that deletes starts at its equilibrium population, PUT share
	// over PUT plus DELETE share of the keys, so that the timed windows do not
	// drift towards it.
	live := nKeys * w.mix[opPut] / (w.mix[opPut] + w.mix[opDel])
	if err := preload(live, h, last); err != nil {
		return nil, err
	}
	if w.net {
		if err := t.startServer(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// preload writes the first live keys of a scattered order (a fixed odd stride
// visits every key once, so the indexes are not built by a sorted bulk load)
// under the preloader's tag and records them in last; the keys left out count
// as the preloader's own deletions.
func preload(live int, h kv, last []uint64) error {
	for i := 0; i < nKeys; i++ {
		k := i * 40503 % nKeys
		if i >= live {
			last[k] = deleted
			continue
		}
		last[k] = makeTag(preloader, 0, k)
		if err := h.put(k, last[k]); err != nil {
			return fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	return nil
}

func (t *target) startServer() error {
	srv, err := server.New(server.Config{
		Store:    t.store,
		Index:    server.Index(t.w.index),
		MaxConns: serverConns,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	t.srv, t.addr = srv, ln.Addr().String()
	t.serveErr = make(chan error, 1)
	go func() { t.serveErr <- srv.Serve(ln) }()
	// Started means serving: one PING round trip, so that whatever follows
	// (a client, or an immediate Shutdown) meets a running accept loop.
	wc, err := wire.DialTimeout(t.addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer wc.Close()
	return wc.Ping()
}

// stopServer drains and stops the server and waits for Serve to return.
// Clients have closed their connections by now, so the drain is immediate.
func (t *target) stopServer() error {
	if t.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := t.srv.Shutdown(ctx)
	if serr := <-t.serveErr; err == nil {
		err = serr
	}
	t.srv = nil
	return err
}
