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
//   - a new record is reserved, filled, and activated into the writing
//     handle's staging slot: its lines and its address are durable before
//     its allocation bit is set, so a crash between allocation and linking
//     can never leak it — Open's recovery frees any staged record its key
//     does not reference (a record whose bit never persisted needs no
//     free: the slot is erased);
//   - a put installs the new record with PutOwned, in one index descent:
//     the record it displaces, if any, is freed through the PMwCAS
//     recycling machinery, atomically-with-the-update as far as crashes
//     are concerned;
//   - a delete uses DeleteOwned, which frees the record in the same
//     PMwCAS that removes the key.
//
// Records are immutable after publication, so readers under an epoch
// guard can copy them out without synchronizing with writers.
package blobkv

import (
	"errors"
	"fmt"
	"sync"

	"pmwcas/internal/alloc"
	"pmwcas/internal/epoch"
	"pmwcas/internal/index"
	"pmwcas/internal/keycodec"
	"pmwcas/internal/nvram"
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
	index func(seed int64) index.Owner
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
	// Index mints per-goroutine handles on the index that maps each key
	// to its record's offset.
	Index     func(seed int64) index.Owner
	Allocator *alloc.Allocator
	Device    *nvram.Device
	// Staging is a durable region of at least MaxHandles words at a
	// layout-stable location.
	Staging nvram.Region
	// MaxHandles bounds blobkv handles: one staging slot each.
	MaxHandles int
}

// Open assembles the store and runs its (tiny) recovery pass: every
// staged record either is exactly what its key maps to — the operation
// completed — or is released. Idempotent; call after the PMwCAS pool has
// recovered and DropUnallocated has run.
func Open(cfg Config) (*Store, error) {
	if cfg.Index == nil || cfg.Allocator == nil || cfg.Device == nil {
		return nil, errors.New("blobkv: Index, Allocator and Device are required")
	}
	if cfg.MaxHandles <= 0 {
		return nil, errors.New("blobkv: MaxHandles must be positive")
	}
	if cfg.Staging.Len < StagingWords(cfg.MaxHandles)*nvram.WordSize {
		return nil, fmt.Errorf("blobkv: staging region holds %d bytes, need %d",
			cfg.Staging.Len, StagingWords(cfg.MaxHandles)*nvram.WordSize)
	}
	s := &Store{
		index:   cfg.Index,
		alloc:   cfg.Allocator,
		dev:     cfg.Device,
		staging: cfg.Staging,
		nSlots:  cfg.MaxHandles,
	}
	s.recoverStaging()
	return s, nil
}

// DropUnallocated erases every staging slot that names a block whose
// allocation bit is clear: the crash hit inside the record's Activate,
// so the record was never allocated and there is nothing to free. After a
// crash it must run right after the PMwCAS pool recovers, before anything
// can allocate the block again, or Open's staging recovery would free the
// block under its new owner.
func DropUnallocated(dev *nvram.Device, a *alloc.Allocator, staging nvram.Region, maxHandles int) {
	for i := 0; i < maxHandles; i++ {
		slot := staging.Base + nvram.Offset(i)*nvram.WordSize
		if rec := dev.Load(slot); rec != 0 && !a.Allocated(rec) {
			dev.Store(slot, 0)
			dev.Flush(slot)
		}
	}
}

// recoverStaging resolves in-flight record publications from before a
// crash.
func (s *Store) recoverStaging() {
	ix := s.index(0x57a9)
	for i := 0; i < s.nSlots; i++ {
		slot := s.staging.Base + nvram.Offset(i)*nvram.WordSize
		rec := s.dev.Load(slot)
		if rec == 0 {
			continue
		}
		erase := func() {
			s.dev.Store(slot, 0)
			s.dev.Flush(slot)
		}
		// The record was filled before its bit was set, so it carries its
		// key (DropUnallocated erased every slot whose bit is clear).
		if cur, err := ix.Get(s.dev.Load(rec + recKeyOff)); err == nil && cur == rec {
			erase() // committed: the index owns the record
			continue
		}
		// The slot is the only reference to the orphaned record, so it is
		// erased in the free's barrier: after the allocation bit clears,
		// before the block can be reallocated. A plain Free followed by the
		// erase would leave a crash window in which the slot durably points
		// at a block another handle has already reallocated — the next
		// recovery would then "free" live data. (A crash inside this
		// barrier leaves the bit clear, and the next recovery's
		// DropUnallocated erases the slot.)
		_ = s.alloc.FreeManyWithBarrier([]nvram.Offset{rec}, erase)
	}
}

// Handle is one goroutine's access context; it owns one staging slot.
type Handle struct {
	s    *Store
	ix   index.Owner
	g    *epoch.Guard // ix's guard
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
	ix := s.index(seed)
	h := &Handle{
		s:    s,
		ix:   ix,
		g:    ix.Guard(),
		ah:   s.alloc.NewHandle(),
		slot: s.staging.Base + nvram.Offset(s.nextHandle)*nvram.WordSize,
	}
	s.nextHandle++
	return h
}

// writeRecord reserves and fills a record, then activates it into the
// handle's slot, which stages it (durably owned until published or
// recovered). Activate writes back the record's lines with the slot;
// the PMwCAS that publishes it fences first.
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
	h.ah.Activate(rec, h.slot)
	return rec, nil
}

// unstage releases an unpublished staged record. The slot is erased
// inside the free's barrier — after the allocation bit clears but before
// the block can be reallocated — so a crash either replays an idempotent
// free or finds no record staged at all; it can never free a block that
// a later allocation now owns.
func (h *Handle) unstage(rec nvram.Offset) {
	//lint:allow hotpath — barrier closure on the unstage path: it runs only when a Put fails outright, never on the success path (§6.3)
	_ = h.s.alloc.FreeManyWithBarrier([]nvram.Offset{rec}, func() {
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
//pmwcas:hotpath — server blob PUT: one staged record write plus the index publication
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
	// The index frees the record this one displaces, in the PMwCAS that
	// installs it.
	//lint:allow hotpath, nonblock — index dispatch: every index.Owner is an index's own handle, whose point ops are themselves //pmwcas:hotpath roots (skiplist, bwtree, hashtable ops.go), so the proof continues on the other side of the interface (§6.3)
	if err := h.ix.PutOwned(k, rec); err != nil {
		h.unstage(rec)
		return err
	}
	h.clearSlot()
	return nil
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
	err := h.ix.Scan(lo, hi, func(e index.Entry) bool {
		key, err := keycodec.Decode(e.Key)
		if err != nil {
			decodeErr = err
			return false
		}
		// The index's scan holds the guard while fn runs, so the record
		// copy is safe here.
		return fn(key, h.s.readRecord(nvram.Offset(e.Value)))
	})
	if decodeErr != nil {
		return decodeErr
	}
	return err
}
