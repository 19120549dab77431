package server

import (
	"bytes"
	"fmt"

	"pmwcas"
	"pmwcas/internal/keycodec"
)

// A backend is one connection's handle set onto the store: one blob KV
// handle per shard, each with its own epoch guard and allocator handle,
// so two connections never share a handle and the store's lock-free
// paths run genuinely concurrently. Backends are minted once at server
// start and leased to connections from a pool.
//
// Point operations route to the key's home shard — the same placement
// Store.ShardForKey gives everyone, so all connections agree where a key
// lives. SCAN merges the shards' ordered streams back into one global key
// order, batch-pulling from each shard so a large range never
// materializes in memory.
type backend struct {
	store *pmwcas.Store
	hs    []*pmwcas.BlobKVHandle // one per shard, index = shard number
	// buf is Get's reusable value scratch. A connection handles one
	// request at a time and encodes the response before the next read,
	// so the returned value may alias it.
	buf []byte
}

// Index names the index a server's blob layer keeps its keys in.
type Index string

// Supported indexes. Every one serves values up to blobkv.MaxValueLen
// bytes through the blob KV layer, crash-atomically.
const (
	// IndexSkipList keeps keys in the PMwCAS skip list.
	IndexSkipList Index = "skiplist"
	// IndexBwTree keeps keys in the Bw-tree.
	IndexBwTree Index = "bwtree"
	// IndexHash keeps keys in the extendible hash table: O(1) point
	// lookups and no key order, so SCAN is rejected with a BAD_REQUEST
	// (the wire protocol has no UNSUPPORTED status, and returning
	// hash-ordered entries for an op every other index serves in key
	// order would be a silent lie).
	IndexHash Index = "hash"
)

// newBackends mints n per-connection backends: each shard's blob layer
// is opened over the chosen index, and every backend gets one handle on
// each.
func newBackends(store *pmwcas.Store, index Index, n int) ([]*backend, error) {
	out := make([]*backend, n)
	for i := range out {
		out[i] = &backend{store: store}
	}
	for si := 0; si < store.ShardCount(); si++ {
		kv, err := store.Shard(si).OpenBlobKV(string(index), pmwcas.IndexOptions{})
		if err != nil {
			return nil, fmt.Errorf("server: shard %d: open blobkv: %w", si, err)
		}
		for i, b := range out {
			b.hs = append(b.hs, kv.NewHandle(int64(i)+0x5e12))
		}
	}
	return out, nil
}

// home returns the handle on key's home shard.
func (b *backend) home(key []byte) (*pmwcas.BlobKVHandle, error) {
	if len(b.hs) == 1 {
		return b.hs[0], nil
	}
	k, err := keycodec.Encode(key)
	if err != nil {
		return nil, err
	}
	return b.hs[b.store.ShardForKey(k)], nil
}

//pmwcas:hotpath — server PUT: route by key hash, then one blob-layer put; the record rides the index's PMwCAS
func (b *backend) Put(key, val []byte) error {
	h, err := b.home(key)
	if err != nil {
		return err
	}
	return h.Put(key, val)
}

//pmwcas:hotpath — server GET: route by key hash; the record copy lands in the connection's scratch
func (b *backend) Get(key []byte) ([]byte, error) {
	h, err := b.home(key)
	if err != nil {
		return nil, err
	}
	v, err := h.GetAppend(key, b.buf[:0])
	if err != nil {
		return nil, err
	}
	b.buf = v
	return v, nil
}

//pmwcas:hotpath — server DELETE: route by key hash, then one blob-layer delete
func (b *backend) Delete(key []byte) error {
	h, err := b.home(key)
	if err != nil {
		return err
	}
	return h.Delete(key)
}

// maxKeyBytes is the largest encodable key — the inclusive upper bound
// for an open-ended scan.
var maxKeyBytes = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// Scan visits entries with keys in [from, end] in order, at most limit
// (at least 1, as the server clamps it) of them. An empty end means the
// end of the keyspace. Each emitted entry is durable on its home shard at
// emission time, so the merged stream is exactly as consistent as a
// single-shard scan under concurrent writers: an ordered snapshot-free
// walk.
func (b *backend) Scan(from, end []byte, limit int, fn func(key, val []byte) bool) error {
	if len(end) == 0 {
		end = maxKeyBytes
	}
	if len(b.hs) == 1 {
		return scanShard(b.hs[0], from, end, limit, fn)
	}
	cursors := make([]*shardCursor, len(b.hs))
	for i, h := range b.hs {
		cursors[i] = &shardCursor{h: h, next: append([]byte(nil), from...)}
	}
	for emitted := 0; emitted < limit; emitted++ {
		// Refill any drained cursor, then pick the smallest head. Keys are
		// unique across shards (each lives only on its home shard), so ties
		// are impossible and the pick order is total.
		min := -1
		for i, c := range cursors {
			if err := c.refill(end); err != nil {
				return err
			}
			if len(c.buf) == 0 {
				continue
			}
			if min < 0 || bytes.Compare(c.buf[0].k, cursors[min].buf[0].k) < 0 {
				min = i
			}
		}
		if min < 0 {
			return nil // every shard exhausted
		}
		head := cursors[min].buf[0]
		cursors[min].buf = cursors[min].buf[1:]
		if !fn(head.k, head.v) {
			return nil
		}
	}
	return nil
}

// scanShard is one shard's ordered scan of [from, end], at most limit
// (at least 1) entries. It stops on the limit-th entry: the blob layer
// reads an entry's record before fn sees it, so a scan that stopped on
// the entry past the limit would read one record only to drop it.
func scanShard(h *pmwcas.BlobKVHandle, from, end []byte, limit int, fn func(key, val []byte) bool) error {
	n := 0
	return h.Scan(from, end, func(k, v []byte) bool {
		n++
		return fn(k, v) && n < limit
	})
}

// scanBatch is how many entries a shard cursor pulls per refill. Small
// enough that a limit-1 scan does not drag a big batch off every shard,
// large enough to amortize the per-batch index descent.
const scanBatch = 32

// shardCursor is one shard's position in a merged scan: a buffered
// batch of pending entries and the key to resume from.
type shardCursor struct {
	h    *pmwcas.BlobKVHandle
	buf  []kvPair
	next []byte // resume key for the following batch
	done bool   // the shard has no entries past buf
}

type kvPair struct{ k, v []byte }

// refill pulls the cursor's next batch if its buffer is empty. The
// underlying Scan's callback may reuse its argument slices, so entries
// are copied out.
func (c *shardCursor) refill(end []byte) error {
	if c.done || len(c.buf) > 0 {
		return nil
	}
	got := 0
	var last []byte
	err := scanShard(c.h, c.next, end, scanBatch, func(k, v []byte) bool {
		kk := append([]byte(nil), k...)
		c.buf = append(c.buf, kvPair{kk, append([]byte(nil), v...)})
		last = kk
		got++
		return true
	})
	if err != nil {
		return err
	}
	if got < scanBatch {
		// The shard had fewer than a full batch left in [next, end].
		c.done = true
		return nil
	}
	nk, ok := successorKey(last)
	if !ok {
		c.done = true // last was the top of the keyspace
		return nil
	}
	c.next = nk
	return nil
}

// successorKey returns the smallest key strictly greater than k in the
// bounded keyspace (keys up to keycodec.MaxLen bytes, byte order). The
// second result is false when k is the keyspace's maximum.
func successorKey(k []byte) ([]byte, bool) {
	if len(k) < keycodec.MaxLen {
		// Room to grow: k followed by the smallest byte.
		return append(append([]byte(nil), k...), 0x00), true
	}
	// Maximum length: increment, dropping trailing 0xff bytes. The result
	// is shorter than k yet strictly greater, with nothing in between.
	s := append([]byte(nil), k...)
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] != 0xff {
			s[i]++
			return s[:i+1], true
		}
	}
	return nil, false
}
