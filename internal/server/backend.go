package server

import (
	"errors"
	"fmt"

	"pmwcas"
	"pmwcas/internal/keycodec"
)

// A backend is one connection's handle onto the store: per-connection
// state (epoch guard, allocator slot, staging slot) lives inside it, so
// two connections never share a handle and the store's lock-free paths
// run genuinely concurrently. Backends are minted once at server start
// (handle budgets are a startup decision in every layer below) and
// leased to connections from a pool.
type backend interface {
	Put(key, val []byte) error
	Get(key []byte) ([]byte, error)
	Delete(key []byte) error
	// Scan visits entries with keys in [from, end] in order, at most
	// limit of them. An empty end means the end of the keyspace.
	Scan(from, end []byte, limit int, fn func(key, val []byte) bool) error
}

// Index names a server storage backend.
type Index string

// Supported indexes.
const (
	// IndexSkipList serves keys from the blob KV layer over the PMwCAS
	// skip list: values up to blobkv.MaxValueLen bytes, crash-atomic.
	IndexSkipList Index = "skiplist"
	// IndexBwTree serves keys from the Bw-tree. Keys and values both
	// travel through the order-preserving word codec, so values are
	// limited to keycodec.MaxLen bytes — a counters-and-flags regime.
	IndexBwTree Index = "bwtree"
	// IndexHash serves keys from the extendible hash table, the same
	// codec-bounded regime as the Bw-tree but with O(1) point lookups and
	// no key order: SCAN is rejected with a BAD_REQUEST (the wire protocol
	// has no UNSUPPORTED status, and returning hash-ordered entries for an
	// op every other index serves in key order would be a silent lie).
	IndexHash Index = "hash"
)

// newBackends mints n per-connection backends for the chosen index. On
// a multi-shard store each backend is a shardedBackend routing by key
// over one sub-backend per shard.
func newBackends(store *pmwcas.Store, index Index, n int) ([]backend, error) {
	shards := store.ShardCount()
	per := make([][]backend, shards)
	for si := range per {
		subs, err := newShardBackends(store.Shard(si), index, n)
		if err != nil {
			return nil, fmt.Errorf("server: shard %d: %w", si, err)
		}
		per[si] = subs
	}
	if shards == 1 {
		return per[0], nil
	}
	out := make([]backend, n)
	for i := range out {
		subs := make([]backend, shards)
		for si := range subs {
			subs[si] = per[si][i]
		}
		out[i] = &shardedBackend{store: store, subs: subs}
	}
	return out, nil
}

// newShardBackends mints n single-shard backends over one shard: blob
// values over the skip list, or codec-packed words on any other index
// the store can open by name.
func newShardBackends(sh *pmwcas.Shard, index Index, n int) ([]backend, error) {
	out := make([]backend, n)
	if index == IndexSkipList {
		kv, err := sh.BlobKV()
		if err != nil {
			return nil, fmt.Errorf("open blobkv: %w", err)
		}
		for i := range out {
			out[i] = &blobBackend{h: kv.NewHandle(int64(i) + 0x5e12)}
		}
		return out, nil
	}
	mint, err := sh.OpenIndex(string(index), pmwcas.IndexOptions{})
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = &wordBackend{h: mint(int64(i) + 0x5e12)}
	}
	return out, nil
}

// blobBackend adapts a blobkv handle.
type blobBackend struct {
	h *pmwcas.BlobKVHandle
	// buf is Get's reusable value scratch. A connection handles one
	// request at a time and encodes the response before the next read,
	// so the returned value may alias it.
	buf []byte
}

//pmwcas:hotpath — server PUT against the blob backend; record staging reuses the handle's slot
func (b *blobBackend) Put(key, val []byte) error { return b.h.Put(key, val) }

//pmwcas:hotpath — server GET against the blob backend; the record copy lands in the connection's scratch
func (b *blobBackend) Get(key []byte) ([]byte, error) {
	v, err := b.h.GetAppend(key, b.buf[:0])
	if err != nil {
		return nil, err
	}
	b.buf = v
	return v, nil
}

//pmwcas:hotpath — server DELETE against the blob backend
func (b *blobBackend) Delete(key []byte) error { return b.h.Delete(key) }

// maxKeyBytes is the largest encodable key — the inclusive upper bound
// for an open-ended scan.
var maxKeyBytes = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

func (b *blobBackend) Scan(from, end []byte, limit int, fn func(key, val []byte) bool) error {
	if len(end) == 0 {
		end = maxKeyBytes
	}
	n := 0
	return b.h.Scan(from, end, func(k, v []byte) bool {
		if n >= limit {
			return false
		}
		n++
		return fn(k, v)
	})
}

// wordBackend serves any word index through the shared handle
// contract: keys and values are packed into index words with the
// order-preserving codec, which bounds both at keycodec.MaxLen bytes but
// keeps every mutation a single index write.
type wordBackend struct {
	h pmwcas.IndexHandle
	// buf is Get's reusable decode scratch (see blobBackend.buf).
	buf []byte
}

//pmwcas:hotpath — server PUT against a word index: codec pack plus one index upsert loop
func (b *wordBackend) Put(key, val []byte) error {
	k, err := keycodec.Encode(key)
	if err != nil {
		return err
	}
	v, err := keycodec.Encode(val)
	if err != nil {
		return err
	}
	// Upsert: race losses between the existence check inside Update and
	// Insert are retried until one path wins.
	for {
		//lint:allow hotpath, nonblock — index dispatch: the handles Shard.OpenIndex mints are the indexes' own, and each one's point ops are themselves //pmwcas:hotpath roots (skiplist, bwtree, hashtable ops.go), so the proof continues on the other side of the interface (§6.3)
		err := b.h.Update(k, v)
		if !errors.Is(err, pmwcas.ErrNotFound) {
			return err
		}
		//lint:allow hotpath, nonblock — index dispatch: the handles Shard.OpenIndex mints are the indexes' own, and each one's point ops are themselves //pmwcas:hotpath roots (skiplist, bwtree, hashtable ops.go), so the proof continues on the other side of the interface (§6.3)
		err = b.h.Insert(k, v)
		if !errors.Is(err, pmwcas.ErrKeyExists) {
			return err
		}
	}
}

//pmwcas:hotpath — server GET against a word index; the value decodes into the connection's scratch
func (b *wordBackend) Get(key []byte) ([]byte, error) {
	k, err := keycodec.Encode(key)
	if err != nil {
		return nil, err
	}
	//lint:allow hotpath, nonblock — index dispatch: the handles Shard.OpenIndex mints are the indexes' own, and each one's point ops are themselves //pmwcas:hotpath roots (skiplist, bwtree, hashtable ops.go), so the proof continues on the other side of the interface (§6.3)
	v, err := b.h.Get(k)
	if err != nil {
		return nil, err
	}
	out, err := keycodec.AppendDecode(b.buf[:0], v)
	if err != nil {
		return nil, err
	}
	b.buf = out
	return out, nil
}

//pmwcas:hotpath — server DELETE against a word index
func (b *wordBackend) Delete(key []byte) error {
	k, err := keycodec.Encode(key)
	if err != nil {
		return err
	}
	//lint:allow hotpath, nonblock — index dispatch: the handles Shard.OpenIndex mints are the indexes' own, and each one's point ops are themselves //pmwcas:hotpath roots (skiplist, bwtree, hashtable ops.go), so the proof continues on the other side of the interface (§6.3)
	return b.h.Delete(k)
}

func (b *wordBackend) Scan(from, end []byte, limit int, fn func(key, val []byte) bool) error {
	lo, err := keycodec.Encode(from)
	if err != nil {
		return err
	}
	hi, err := scanUpperBound(end)
	if err != nil {
		return err
	}
	n := 0
	var decodeErr error
	err = b.h.Scan(lo, hi, func(e pmwcas.IndexEntry) bool {
		if n >= limit {
			return false
		}
		k, err := keycodec.Decode(e.Key)
		if err != nil {
			decodeErr = err
			return false
		}
		v, err := keycodec.Decode(e.Value)
		if err != nil {
			decodeErr = err
			return false
		}
		n++
		return fn(k, v)
	})
	if decodeErr != nil {
		return decodeErr
	}
	return err
}

// scanUpperBound maps a request's end-key to an encoded inclusive upper
// bound; empty means "everything from the lower bound on".
func scanUpperBound(end []byte) (uint64, error) {
	if len(end) == 0 {
		_, hi, err := keycodec.PrefixRange(nil)
		return hi, err
	}
	return keycodec.Encode(end)
}
