// Package blobkv is a persistent key-value store with arbitrary-length
// byte values, layered on the PMwCAS skip list — the kind of structure a
// main-memory database would actually put on NVRAM, and a demonstration
// that the paper's building blocks (descriptor-owned allocation, recycle
// policies, epoch protection) compose beyond fixed-width indexes.
//
// Keys are short byte strings (up to keycodec.MaxLen bytes), mapped
// order-preservingly onto the skip list's integer keys. Values live
// out-of-line as immutable record blocks; the skip list stores each
// record's offset. Every mutation is crash-atomic:
//
//   - a new record is allocated with its address delivered durably into
//     the writing handle's staging slot, so a crash between allocation
//     and linking can never leak it — Open's recovery frees any staged
//     record its key does not reference;
//   - an update installs the new record with CompareUpdateOwned: the
//     displaced record is freed through the PMwCAS recycling machinery,
//     atomically-with-the-update as far as crashes are concerned;
//   - a delete uses DeleteOwned, which frees the record together with the
//     index node in the same PMwCAS.
//
// Records are immutable after publication, so readers under an epoch
// guard can copy them out without synchronizing with writers.
package blobkv

import (
	"errors"
	"fmt"
	"sync"

	"pmwcas/internal/alloc"
	"pmwcas/internal/index"
	"pmwcas/internal/keycodec"
	"pmwcas/internal/nvram"
	"pmwcas/internal/skiplist"
)

// MaxValueLen bounds value sizes to what the default allocator classes
// can hold; larger values would need dedicated size classes.
const MaxValueLen = 4096 - recHeader

// Record layout: word0 = byte length, word1 = index key (for staging
// recovery), payload from +16 packed into words.
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
	list  *skiplist.List
	alloc *alloc.Allocator
	dev   *nvram.Device

	staging nvram.Region // one durable word per handle
	nSlots  int

	mu         sync.Mutex
	nextHandle int
}

// StagingWords returns how many staging root words a store with the
// given handle budget needs (for layout planning).
func StagingWords(maxHandles int) uint64 { return uint64(maxHandles) }

// Config wires a Store to its substrates.
type Config struct {
	List      *skiplist.List
	Allocator *alloc.Allocator
	Device    *nvram.Device
	// Staging is a durable region of at least MaxHandles words at a
	// layout-stable location.
	Staging nvram.Region
	// MaxHandles bounds blobkv handles. Budgeting note: each blobkv
	// handle consumes one skip list handle and one allocator handle, and
	// Open itself uses one of each for staging recovery.
	MaxHandles int
}

// Open assembles the store and runs its (tiny) recovery pass: every
// staged record either is exactly what its key maps to — the operation
// completed — or is released. Idempotent; call after the allocator and
// PMwCAS pools have recovered.
func Open(cfg Config) (*Store, error) {
	if cfg.List == nil || cfg.Allocator == nil || cfg.Device == nil {
		return nil, errors.New("blobkv: List, Allocator and Device are required")
	}
	if cfg.MaxHandles <= 0 {
		return nil, errors.New("blobkv: MaxHandles must be positive")
	}
	if cfg.Staging.Len < StagingWords(cfg.MaxHandles)*nvram.WordSize {
		return nil, fmt.Errorf("blobkv: staging region holds %d bytes, need %d",
			cfg.Staging.Len, StagingWords(cfg.MaxHandles)*nvram.WordSize)
	}
	s := &Store{
		list:    cfg.List,
		alloc:   cfg.Allocator,
		dev:     cfg.Device,
		staging: cfg.Staging,
		nSlots:  cfg.MaxHandles,
	}
	s.recoverStaging()
	return s, nil
}

// recoverStaging resolves in-flight record publications from before a
// crash.
func (s *Store) recoverStaging() {
	lh := s.list.NewHandle(0x57a9)
	for i := 0; i < s.nSlots; i++ {
		slot := s.staging.Base + nvram.Offset(i)*nvram.WordSize
		rec := s.dev.Load(slot)
		if rec == 0 {
			continue
		}
		key := s.dev.Load(rec + recKeyOff)
		committed := false
		if key != 0 {
			if cur, err := lh.Get(key); err == nil && cur == rec {
				committed = true
			}
		}
		if !committed {
			// The slot is the only reference to the orphaned record, so the
			// free must be interlocked with erasing it: FreeWithBarrier
			// clears the slot before the block re-enters the free lists. A
			// plain Free followed by the store would leave a crash window in
			// which the slot durably points at a block another handle has
			// already reallocated — the next recovery would then "free" live
			// data. (Double free is tolerated: a crash inside a previous
			// recovery's barrier may have cleared the bitmap but not yet the
			// slot.)
			_ = s.alloc.FreeWithBarrier(rec, func() {
				s.dev.Store(slot, 0)
				s.dev.Flush(slot)
			})
		}
		s.dev.Store(slot, 0)
		s.dev.Flush(slot)
	}
}

// Handle is one goroutine's access context; it owns one staging slot.
type Handle struct {
	s    *Store
	lh   *skiplist.Handle
	ah   *alloc.Handle
	slot nvram.Offset
}

// NewHandle returns a per-goroutine handle. It panics past MaxHandles —
// handle budgeting is a startup decision.
func (s *Store) NewHandle(seed int64) *Handle {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nextHandle >= s.nSlots {
		panic(fmt.Sprintf("blobkv: more than %d handles requested", s.nSlots))
	}
	h := &Handle{
		s:    s,
		lh:   s.list.NewHandle(seed),
		ah:   s.alloc.NewHandle(),
		slot: s.staging.Base + nvram.Offset(s.nextHandle)*nvram.WordSize,
	}
	s.nextHandle++
	return h
}

// writeRecord allocates, fills, and persists a record, leaving it staged
// in the handle's slot (durably owned until published or recovered).
func (h *Handle) writeRecord(key uint64, val []byte) (nvram.Offset, error) {
	size := uint64(recHeader + (len(val)+7)/8*8)
	rec, err := h.ah.Alloc(size, h.slot)
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
	for off := rec; off < rec+size; off += nvram.LineBytes {
		dev.Flush(off)
	}
	dev.Fence()
	return rec, nil
}

// unstage releases an unpublished staged record. The slot is erased
// inside the free's barrier — after the allocation bit clears but before
// the block can be reallocated — so a crash either replays an idempotent
// free or finds no record staged at all; it can never free a block that
// a later allocation now owns.
func (h *Handle) unstage(rec nvram.Offset) {
	//lint:allow hotpath — barrier closure on the unstage path: it runs only when a Put loses its publication race or fails outright, never on the success path (§6.3)
	_ = h.s.alloc.FreeWithBarrier(rec, func() {
		h.s.dev.Store(h.slot, 0)
		h.s.dev.Flush(h.slot)
	})
}

// clearSlot retires the staging record after successful publication.
func (h *Handle) clearSlot() {
	h.s.dev.Store(h.slot, 0)
	h.s.dev.Flush(h.slot)
}

// Put stores val under key, inserting or replacing. The whole operation
// is crash-atomic: after recovery the key maps to either the old or the
// new value, and no record block is leaked either way.
//
//pmwcas:hotpath — server blob PUT: one staged record write plus the index publication loop
func (h *Handle) Put(key, val []byte) error {
	k, err := keycodec.Encode(key)
	if err != nil {
		return err
	}
	if len(val) > MaxValueLen {
		return ErrValueTooLarge
	}
	rec, err := h.writeRecord(k, val)
	if err != nil {
		return err
	}
	for {
		cur, err := h.lh.Get(k)
		switch {
		case errors.Is(err, skiplist.ErrNotFound):
			err := h.lh.Insert(k, rec)
			if err == nil {
				h.clearSlot()
				return nil
			}
			if errors.Is(err, skiplist.ErrKeyExists) {
				continue // raced with another writer; try the update path
			}
			h.unstage(rec)
			return err
		case err != nil:
			h.unstage(rec)
			return err
		default:
			err := h.lh.CompareUpdateOwned(k, cur, rec)
			if err == nil {
				// The old record is freed by the PMwCAS recycle policy.
				h.clearSlot()
				return nil
			}
			if errors.Is(err, skiplist.ErrValueMismatch) || errors.Is(err, skiplist.ErrNotFound) {
				continue // lost a race; re-resolve
			}
			h.unstage(rec)
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
	g := h.lh.Guard()
	g.Enter()
	defer g.Exit()
	rec, err := h.lh.Get(k)
	if err != nil {
		return dst, ErrNotFound
	}
	return h.s.appendRecord(dst, nvram.Offset(rec)), nil
}

// readRecord copies a record's payload out. Caller holds a guard.
func (s *Store) readRecord(rec nvram.Offset) []byte {
	return s.appendRecord(nil, rec)
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

// Delete removes key; the record block is freed with the index node in
// one PMwCAS.
func (h *Handle) Delete(key []byte) error {
	k, err := keycodec.Encode(key)
	if err != nil {
		return err
	}
	if _, err := h.lh.DeleteOwned(k); err != nil {
		return ErrNotFound
	}
	return nil
}

// Has reports whether key is present.
func (h *Handle) Has(key []byte) bool {
	k, err := keycodec.Encode(key)
	if err != nil {
		return false
	}
	return h.lh.Contains(k)
}

// Scan visits keys in [from, to] (byte-string bounds, inclusive) in
// lexicographic order; fn returning false stops the scan. Values are
// copies.
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

// ScanPrefix visits every key with the given prefix in order.
func (h *Handle) ScanPrefix(prefix []byte, fn func(key, val []byte) bool) error {
	lo, hi, err := keycodec.PrefixRange(prefix)
	if err != nil {
		return err
	}
	return h.scanRange(lo, hi, fn)
}

func (h *Handle) scanRange(lo, hi uint64, fn func(key, val []byte) bool) error {
	var decodeErr error
	err := h.lh.Scan(lo, hi, func(e skiplist.Entry) bool {
		key, err := keycodec.Decode(e.Key)
		if err != nil {
			decodeErr = err
			return false
		}
		// The list's scan holds the guard while fn runs, so the record
		// copy is safe here.
		return fn(key, h.s.readRecord(nvram.Offset(e.Value)))
	})
	if decodeErr != nil {
		return decodeErr
	}
	return err
}

// Len counts the keys. O(n).
func (h *Handle) Len() int {
	n := 0
	h.lh.Scan(1, skiplist.MaxKey-1, func(skiplist.Entry) bool { n++; return true })
	return n
}
