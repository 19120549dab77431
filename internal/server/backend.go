package server

import (
	"fmt"

	"pmwcas"
	"pmwcas/internal/blobkv"
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
// lives. SCAN is blobkv.ScanMerged over every shard's handle: one k-way
// merge for any shard count, which reads a record only to return it.
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
// of them. An empty end means the end of the keyspace. Each emitted entry
// is durable on its home shard at emission time, so the merged stream is
// exactly as consistent as a single-shard scan under concurrent writers:
// an ordered snapshot-free walk.
func (b *backend) Scan(from, end []byte, limit int, fn func(key, val []byte) bool) error {
	if len(end) == 0 {
		end = maxKeyBytes
	}
	return blobkv.ScanMerged(b.hs, from, end, limit, fn)
}
