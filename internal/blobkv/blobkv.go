// Package blobkv is a persistent key-value store with arbitrary-length
// byte values, layered on any index that owns its values (index.Owner:
// the skip list, the Bw-tree or the hash table) — the kind of structure a
// main-memory database would actually put on NVRAM, and a demonstration
// that the paper's building blocks (descriptor-owned allocation, recycle
// policies, epoch protection) compose beyond fixed-width indexes.
//
// Keys are short byte strings (up to keycodec.MaxLen bytes), mapped
// order-preservingly onto the index's integer keys. Values live
// out-of-line as immutable record blocks; the index stores each record's
// offset. Every mutation is crash-atomic:
//
//   - a put reserves and fills a new record and hands it to PutOwned,
//     which makes it a descriptor entry of the PMwCAS that installs it,
//     in one index descent (§5.2): the descriptor is the record's only
//     owner until that PMwCAS commits, so a lost race or a crash frees it,
//     and the record it displaces, if any, is freed by the same PMwCAS;
//   - a delete uses DeleteOwned, which frees the record in the same
//     PMwCAS that removes the key.
//
// So the layer has no durable state and no recovery of its own beyond
// the index's and the descriptor pool's.
//
// Records are immutable after publication, so readers under an epoch
// guard can copy them out without synchronizing with writers.
package blobkv

import (
	"errors"

	"pmwcas/internal/alloc"
	"pmwcas/internal/epoch"
	"pmwcas/internal/index"
	"pmwcas/internal/keycodec"
	"pmwcas/internal/nvram"
)

// MaxValueLen bounds value sizes to what the default allocator classes
// can hold; larger values would need dedicated size classes.
const MaxValueLen = 4096 - recHeader

// Record layout: word0 = byte length, word1 = index key (Check matches it
// against the index), payload from +16 packed into words.
const (
	recLenOff  = 0
	recKeyOff  = 8
	recDataOff = 16
	recHeader  = 16
)

var (
	// ErrNotFound is returned when a key is absent (the shared index
	// sentinel).
	ErrNotFound = index.ErrNotFound
	// ErrValueTooLarge is returned for values over MaxValueLen.
	ErrValueTooLarge = errors.New("blobkv: value too large")
)

// Store is the blob KV store. Access goes through per-goroutine Handles.
type Store struct {
	index func(seed int64) index.Owner
	alloc *alloc.Allocator
	dev   *nvram.Device
}

// Config wires a Store to its substrates.
type Config struct {
	// Index mints per-goroutine handles on the index that maps each key
	// to its record's offset.
	Index     func(seed int64) index.Owner
	Allocator *alloc.Allocator
	Device    *nvram.Device
}

// Open assembles the store. It has nothing to recover: call it after
// the PMwCAS pool has recovered.
func Open(cfg Config) (*Store, error) {
	if cfg.Index == nil || cfg.Allocator == nil || cfg.Device == nil {
		return nil, errors.New("blobkv: Index, Allocator and Device are required")
	}
	return &Store{index: cfg.Index, alloc: cfg.Allocator, dev: cfg.Device}, nil
}

// Handle is one goroutine's access context.
type Handle struct {
	s   *Store
	ix  index.Owner
	g   *epoch.Guard // ix's guard
	ah  *alloc.Handle
	cur cursor // this handle's place in a ScanMerged
	out []byte // the key and value a scan hands its visitor
}

// NewHandle returns a per-goroutine handle.
func (s *Store) NewHandle(seed int64) *Handle {
	ix := s.index(seed)
	h := &Handle{s: s, ix: ix, g: ix.Guard(), ah: s.alloc.NewHandle()}
	h.cur.fill = func(e index.Entry) bool {
		h.cur.ents = append(h.cur.ents, e)
		return len(h.cur.ents) < h.cur.want
	}
	return h
}

// writeRecord reserves and fills a record. It stays reserved: PutOwned
// hands it to the descriptor that publishes it, which writes back its
// lines and activates it.
func (h *Handle) writeRecord(key uint64, val []byte) (nvram.Offset, error) {
	rec, err := h.ah.Reserve(uint64(recHeader + (len(val)+7)/8*8))
	if err != nil {
		return 0, err
	}
	dev := h.s.dev
	dev.Store(rec+recLenOff, uint64(len(val)))
	dev.Store(rec+recKeyOff, key)
	for i := 0; i < len(val); i += 8 {
		var w uint64
		for j := 0; j < 8 && i+j < len(val); j++ {
			w |= uint64(val[i+j]) << (8 * j)
		}
		dev.Store(rec+recDataOff+nvram.Offset(i), w)
	}
	return rec, nil
}

// Put stores val under key, inserting or replacing. The whole operation
// is crash-atomic: after recovery the key maps to either the old or the
// new value, and no record block is leaked either way. A PMwCAS that
// loses its race frees the record it carried, so Put writes a new one
// and tries again.
//
//pmwcas:hotpath — server blob PUT: one record write plus the index publication
func (h *Handle) Put(key, val []byte) error {
	k, err := keycodec.Encode(key)
	if err != nil {
		return err
	}
	if len(val) > MaxValueLen {
		return ErrValueTooLarge
	}
	for {
		rec, err := h.writeRecord(k, val)
		if err != nil {
			return err
		}
		//lint:allow hotpath, nonblock — index dispatch: every index.Owner is an index's own handle, whose point ops are themselves //pmwcas:hotpath roots (skiplist, bwtree, hashtable ops.go), so the proof continues on the other side of the interface (§6.3)
		if err := h.ix.PutOwned(k, rec); err != index.ErrRaced {
			return err
		}
	}
}

// Get returns a copy of the value stored under key. It allocates the
// copy; per-request loops should reuse a buffer through GetAppend.
func (h *Handle) Get(key []byte) ([]byte, error) {
	return h.GetAppend(key, nil)
}

// GetAppend appends the value stored under key to dst and returns the
// extended slice (dst unchanged on error). The copy-out is unavoidable —
// the record may be recycled the moment the guard drops — but the
// destination buffer need not be fresh per call.
//
//pmwcas:hotpath — server blob GET; one record copy into a connection-owned scratch buffer, no other heap traffic
func (h *Handle) GetAppend(key, dst []byte) ([]byte, error) {
	k, err := keycodec.Encode(key)
	if err != nil {
		return dst, err
	}
	// The guard must span lookup AND record copy: a concurrent Put could
	// otherwise recycle the record between the two.
	h.g.Enter()
	defer h.g.Exit()
	//lint:allow hotpath, nonblock — index dispatch, as in Put (§6.3)
	rec, err := h.ix.Get(k)
	if err != nil {
		return dst, err
	}
	return h.s.appendRecord(dst, nvram.Offset(rec)), nil
}

// appendRecord appends a record's payload to dst. Caller holds a guard.
func (s *Store) appendRecord(dst []byte, rec nvram.Offset) []byte {
	n := int(s.dev.Load(rec + recLenOff))
	for i := 0; i < n; i += 8 {
		w := s.dev.Load(rec + recDataOff + nvram.Offset(i))
		for j := 0; j < 8 && i+j < n; j++ {
			dst = append(dst, byte(w>>(8*j)))
		}
	}
	return dst
}

// Delete removes key; the record block is freed in the PMwCAS that
// removes the key.
func (h *Handle) Delete(key []byte) error {
	k, err := keycodec.Encode(key)
	if err != nil {
		return err
	}
	//lint:allow hotpath, nonblock — index dispatch, as in Put (§6.3)
	_, err = h.ix.DeleteOwned(k)
	return err
}

// Scan visits keys in [from, to] (byte-string bounds, inclusive) in
// lexicographic order; fn returning false stops the scan. key and val
// are valid until fn returns: the handle reuses their buffer.
func (h *Handle) Scan(from, to []byte, fn func(key, val []byte) bool) error {
	lo, err := keycodec.Encode(from)
	if err != nil {
		return err
	}
	hi, err := keycodec.Encode(to)
	if err != nil {
		return err
	}
	return h.scanRange(lo, hi, fn)
}

// ScanPrefix visits every key with the given prefix in order; key and
// val are valid until fn returns, as in Scan.
func (h *Handle) ScanPrefix(prefix []byte, fn func(key, val []byte) bool) error {
	lo, hi, err := keycodec.PrefixRange(prefix)
	if err != nil {
		return err
	}
	return h.scanRange(lo, hi, fn)
}

func (h *Handle) scanRange(lo, hi uint64, fn func(key, val []byte) bool) error {
	var decodeErr error
	err := h.ix.Scan(lo, hi, func(e index.Entry) bool {
		out, err := keycodec.AppendDecode(h.out[:0], e.Key)
		if err != nil {
			decodeErr = err
			return false
		}
		// The index's scan holds the guard while fn runs, so the record
		// copy is safe here.
		n := len(out)
		h.out = h.s.appendRecord(out, nvram.Offset(e.Value))
		return fn(h.out[:n:n], h.out[n:])
	})
	if decodeErr != nil {
		return decodeErr
	}
	return err
}

// mergeSlack is how many entries a ScanMerged refill asks for beyond
// its shard's even share of what the scan still owes: keys spread over
// the shards unevenly, and a short refill costs a second descent. A
// two-shard SCAN(50) read the fewest device ops at 8 (EXPERIMENTS.md E21).
const mergeSlack = 8

// cursor is a handle's shard in a ScanMerged. It lives in the handle, so
// its buffers outlast a scan and a scan allocates nothing per entry.
type cursor struct {
	ents []index.Entry // read from the index; ents[pos:] are not yet emitted
	pos  int
	next uint64                 // where the next refill resumes
	want int                    // the refill in progress stops at this many entries
	done bool                   // nothing in range past ents
	fill func(index.Entry) bool // appends to ents; made once, so a refill allocates nothing
}

// ScanMerged visits the keys in [from, to] held by any of hs, handles on
// the shards of one keyspace, in ascending order, at most limit of them;
// fn returning false stops the scan. The handles must be distinct and fn
// must not use them; key and val are valid until fn returns.
//
// It holds every handle's guard until it returns: a nested Enter pins
// the epoch (Repin does nothing under it), so no record whose offset a
// cursor has buffered can be recycled. So a cursor buffers index entries
// only, and a record is read when its entry is emitted (§5.1).
func ScanMerged(hs []*Handle, from, to []byte, limit int, fn func(key, val []byte) bool) error {
	lo, err := keycodec.Encode(from)
	if err != nil {
		return err
	}
	hi, err := keycodec.Encode(to)
	if err != nil {
		return err
	}
	for _, h := range hs {
		h.g.Enter()
		defer h.g.Exit()
		h.cur.ents, h.cur.pos, h.cur.next, h.cur.done = h.cur.ents[:0], 0, lo, false
	}
	live := len(hs) // cursors not done
	for emitted := 0; emitted < limit; emitted++ {
		var next *Handle
		for _, h := range hs {
			c := &h.cur
			if c.pos == len(c.ents) && !c.done {
				owed := limit - emitted
				if err := h.refill(hi, min(owed, (owed+live-1)/live+mergeSlack)); err != nil {
					return err
				}
				if c.done {
					live--
				}
			}
			// Keys are unique across shards, so the pick order is total.
			if c.pos < len(c.ents) && (next == nil || c.ents[c.pos].Key < next.cur.ents[next.cur.pos].Key) {
				next = h
			}
		}
		if next == nil {
			return nil
		}
		c := &next.cur
		e := c.ents[c.pos]
		c.pos++
		out, err := keycodec.AppendDecode(next.out[:0], e.Key)
		if err != nil {
			return err
		}
		n := len(out)
		next.out = next.s.appendRecord(out, nvram.Offset(e.Value))
		//lint:allow nonblock — user visitor runs under the scan guard by documented contract; it must not block (§6.3)
		if !fn(next.out[:n:n], next.out[n:]) {
			return nil
		}
	}
	return nil
}

// refill reads up to want entries from cur.next on. Keys are integers, so
// the cursor resumes at the last one plus one.
func (h *Handle) refill(hi uint64, want int) error {
	c := &h.cur
	c.ents, c.pos, c.want = c.ents[:0], 0, want
	//lint:allow nonblock — index dispatch, as in Put (§6.3)
	if err := h.ix.Scan(c.next, hi, c.fill); err != nil {
		return err
	}
	n := len(c.ents)
	c.done = n < want || c.ents[n-1].Key >= hi
	if !c.done {
		c.next = c.ents[n-1].Key + 1
	}
	return nil
}
