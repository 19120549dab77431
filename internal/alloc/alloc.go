// Package alloc implements a persistent memory allocator with the
// reserve/activate interface the PMwCAS paper assumes (§5.2).
//
// The problem it solves: `p = malloc(n)` is two steps — reserving the
// block and delivering its address into p — and a crash between them
// leaks the block (it is owned by neither the allocator nor the
// application). Following the paper (and posix_memalign-style NVM
// allocators [17, 33]), Alloc therefore takes the *target word* the
// address must be delivered into. The allocator persists the address into
// that word before returning; until then a durable per-thread delivery
// record names both the block and the target, so recovery can decide
// whether the handoff completed (target word holds the block address →
// ownership transferred) or must be rolled back (block returned to the
// free list).
//
// Layout inside the allocator's region (deterministic across restarts):
//
//	[ delivery slots: 2 words x maxHandles ]
//	[ class 0: allocation bitmap ][ class 0: blocks ... ]
//	[ class 1: allocation bitmap ][ class 1: blocks ... ]
//	...
//
// Durable state is only the bitmaps and delivery slots. Free lists are
// volatile and rebuilt from the bitmaps at startup, mirroring the paper's
// observation that volatile bookkeeping needs no recovery of its own.
package alloc

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pmwcas/internal/metrics"
	"pmwcas/internal/nvram"
)

// Observability (DRAM-only; see internal/metrics). Alloc latency covers
// the full reserve→zero→activate handoff, which is flush-dominated — it
// is the persistency cost of node creation.
var (
	mAllocs   = metrics.NewCounter("alloc_blocks_allocated")
	mFrees    = metrics.NewCounter("alloc_blocks_freed")
	mAllocOOM = metrics.NewCounter("alloc_out_of_memory")
	mAllocNs  = metrics.NewHistogram("alloc_ns")
)

// Class describes one size class: Count blocks of BlockSize bytes each.
// BlockSize must be a positive multiple of the cache-line size.
type Class struct {
	BlockSize uint64
	Count     uint64
}

// DefaultClasses is a reasonable general-purpose class spec used by the
// indexes in this repository: plenty of small node/delta-sized blocks and
// progressively fewer large page-sized ones.
func DefaultClasses(totalBlocks uint64) []Class {
	if totalBlocks == 0 {
		totalBlocks = 1 << 16
	}
	return []Class{
		{BlockSize: 64, Count: totalBlocks},
		{BlockSize: 128, Count: totalBlocks / 2},
		{BlockSize: 256, Count: totalBlocks / 4},
		{BlockSize: 1024, Count: totalBlocks / 8},
		{BlockSize: 4096, Count: totalBlocks / 16},
	}
}

// MetaSize returns the number of bytes a spec needs for the allocator's
// region, so callers can size their layout carve.
func MetaSize(spec []Class, maxHandles int) uint64 {
	total := uint64(maxHandles) * 2 * nvram.WordSize
	total = roundLine(total)
	for _, c := range spec {
		total += roundLine((c.Count + 63) / 64 * nvram.WordSize) // bitmap
		total += c.BlockSize * c.Count
	}
	return total
}

func roundLine(n uint64) uint64 {
	return (n + nvram.LineBytes - 1) / nvram.LineBytes * nvram.LineBytes
}

// Errors returned by the allocator.
var (
	ErrOutOfMemory = errors.New("alloc: out of memory")
	ErrBadBlock    = errors.New("alloc: offset is not an allocated block")
	ErrTooLarge    = errors.New("alloc: request exceeds largest size class")
	ErrDoubleFree  = errors.New("alloc: double free of live block")
)

type class struct {
	blockSize  uint64
	count      uint64
	bitmapBase nvram.Offset
	blocksBase nvram.Offset

	mu   sync.Mutex
	free []uint64 // volatile free list of block indexes
}

// Allocator is a persistent size-class allocator over one device region.
type Allocator struct {
	dev     *nvram.Device
	region  nvram.Region
	classes []class
	slots   nvram.Offset // delivery slot array base
	nslots  int

	handleMu   sync.Mutex
	nextHandle int

	// poisoned, when non-nil, marks this allocator as superseded (see
	// Pool.Poison); every entry point panics with the stored reason.
	poisoned atomic.Pointer[string]
}

// Poison marks the allocator dead: any further allocation or free through
// it panics with the given reason. Store.Recover poisons the allocator it
// replaces so stale handles fail loudly instead of double-allocating
// blocks the replacement allocator also hands out.
func (a *Allocator) Poison(reason string) {
	a.poisoned.Store(&reason)
}

func (a *Allocator) checkPoisoned() {
	if r := a.poisoned.Load(); r != nil {
		panic("alloc: use of poisoned allocator: " + *r)
	}
}

// New lays the allocator out over region and rebuilds volatile state from
// the durable bitmaps. Calling New on a fresh (zeroed) region yields an
// empty allocator; calling it after a crash on the same region and spec
// yields the pre-crash allocator, ready for Recover.
func New(dev *nvram.Device, region nvram.Region, spec []Class, maxHandles int) (*Allocator, error) {
	if maxHandles <= 0 {
		return nil, fmt.Errorf("alloc: maxHandles must be positive, got %d", maxHandles)
	}
	if len(spec) == 0 {
		return nil, errors.New("alloc: empty class spec")
	}
	a := &Allocator{dev: dev, region: region, nslots: maxHandles}
	off := region.Base
	a.slots = off
	off += roundLine(uint64(maxHandles) * 2 * nvram.WordSize)

	prevSize := uint64(0)
	a.classes = make([]class, len(spec))
	for i, c := range spec {
		if c.BlockSize == 0 || c.BlockSize%nvram.LineBytes != 0 {
			return nil, fmt.Errorf("alloc: class block size %d is not a positive multiple of %d",
				c.BlockSize, nvram.LineBytes)
		}
		if c.BlockSize <= prevSize {
			return nil, errors.New("alloc: class spec must be sorted by ascending block size")
		}
		if c.Count == 0 {
			return nil, errors.New("alloc: class with zero blocks")
		}
		prevSize = c.BlockSize
		cl := &a.classes[i]
		cl.blockSize, cl.count, cl.bitmapBase = c.BlockSize, c.Count, off
		off += roundLine((c.Count + 63) / 64 * nvram.WordSize)
		cl.blocksBase = off
		off += c.BlockSize * c.Count
	}
	if off > region.End() {
		return nil, fmt.Errorf("alloc: spec needs %d bytes, region has %d", off-region.Base, region.Len)
	}
	a.rebuildFreeLists()
	return a, nil
}

// rebuildFreeLists scans the durable bitmaps and repopulates the volatile
// free lists with every unallocated block index.
func (a *Allocator) rebuildFreeLists() {
	for ci := range a.classes {
		c := &a.classes[ci]
		c.mu.Lock()
		c.free = c.free[:0]
		// Push in descending order so allocation proceeds from low
		// addresses, which keeps tests deterministic.
		for i := int64(c.count) - 1; i >= 0; i-- {
			if !a.bitTest(c, uint64(i)) {
				c.free = append(c.free, uint64(i))
			}
		}
		c.mu.Unlock()
	}
}

func (a *Allocator) bitWord(c *class, idx uint64) nvram.Offset {
	return c.bitmapBase + (idx/64)*nvram.WordSize
}

func (a *Allocator) bitTest(c *class, idx uint64) bool {
	return a.dev.Load(a.bitWord(c, idx))&(1<<(idx%64)) != 0
}

// bitSet persistently sets or clears an allocation bit.
func (a *Allocator) bitSet(c *class, idx uint64, on bool) {
	off := a.bitWord(c, idx)
	mask := uint64(1) << (idx % 64)
	for {
		old := a.dev.Load(off)
		var new uint64
		if on {
			new = old | mask
		} else {
			new = old &^ mask
		}
		if old == new || a.dev.CAS(off, old, new) {
			break
		}
	}
	a.dev.Flush(off)
}

func (a *Allocator) classFor(size uint64) int {
	for i := range a.classes {
		if a.classes[i].blockSize >= size {
			return i
		}
	}
	return -1
}

// classOf maps a block offset back to its class index, or -1.
func (a *Allocator) classOf(block nvram.Offset) int {
	for i := range a.classes {
		c := &a.classes[i]
		end := c.blocksBase + c.blockSize*c.count
		if block >= c.blocksBase && block < end {
			if (block-c.blocksBase)%c.blockSize != 0 {
				return -1
			}
			return i
		}
	}
	return -1
}

// BlockSize returns the usable size of an allocated block, or an error if
// block is not a valid block offset.
func (a *Allocator) BlockSize(block nvram.Offset) (uint64, error) {
	ci := a.classOf(block)
	if ci < 0 {
		return 0, fmt.Errorf("%w: %#x", ErrBadBlock, block)
	}
	return a.classes[ci].blockSize, nil
}

// A Handle is one thread's allocation context: it owns a durable delivery
// slot. Handles must not be shared between goroutines.
type Handle struct {
	a    *Allocator
	slot nvram.Offset // 2 words: [block, target]
	lane metrics.Stripe
}

// NewHandle returns the next free handle. It panics when more than
// maxHandles handles are requested — handle count is a startup-time
// configuration, not a runtime condition.
func (a *Allocator) NewHandle() *Handle {
	a.checkPoisoned()
	a.handleMu.Lock()
	defer a.handleMu.Unlock()
	if a.nextHandle >= a.nslots {
		panic(fmt.Sprintf("alloc: more than %d handles requested", a.nslots))
	}
	h := &Handle{a: a, slot: a.slots + nvram.Offset(a.nextHandle)*2*nvram.WordSize, lane: metrics.NextStripe()}
	a.nextHandle++
	return h
}

// Alloc reserves a block of at least size bytes, zeroes it, persistently
// delivers its offset into the target word, and returns the offset. On
// return the application owns the block: the delivery is durable and a
// crash can no longer leak it. The previous contents of the target word
// are overwritten.
//
// If the preferred size class is exhausted, the next larger class is
// used (internal fragmentation instead of failure).
//
//pmwcas:hotpath — runs inside index SMOs and descriptor refills; a heap allocation here defeats the persistent allocator's whole point
func (h *Handle) Alloc(size uint64, target nvram.Offset) (nvram.Offset, error) {
	a := h.a
	a.checkPoisoned()
	var t0 time.Time
	if metrics.On() {
		t0 = time.Now()
	}
	ci := a.classFor(size)
	if ci < 0 {
		return 0, ErrTooLarge
	}
	for ; ci < len(a.classes); ci++ {
		c := &a.classes[ci]
		//lint:allow nonblock — free-list pop under a per-class leaf lock; bounded, no I/O, no nesting (§6.3)
		c.mu.Lock()
		if len(c.free) == 0 {
			c.mu.Unlock()
			continue
		}
		idx := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		c.mu.Unlock()

		block := c.blocksBase + idx*c.blockSize

		// 1. Durable delivery record: names both ends of the handoff.
		a.dev.Store(h.slot, block)
		a.dev.Store(h.slot+nvram.WordSize, target)
		a.dev.Flush(h.slot)
		a.dev.Fence()

		// 2. Mark the block allocated.
		a.bitSet(c, idx, true)

		// 3. Zero the block so a crash never exposes a stale incarnation.
		for off := block; off < block+c.blockSize; off += nvram.WordSize {
			a.dev.Store(off, 0)
		}
		for off := block; off < block+c.blockSize; off += nvram.LineBytes {
			a.dev.Flush(off)
		}

		// 4. Activate: deliver the address into the application's word.
		a.dev.Store(target, block)
		a.dev.Flush(target)
		a.dev.Fence()

		// 5. Retire the delivery record; the handoff is complete.
		a.dev.Store(h.slot, 0)
		a.dev.Flush(h.slot)
		mAllocs.Inc(h.lane)
		if !t0.IsZero() {
			mAllocNs.ObserveSince(h.lane, t0)
		}
		return block, nil
	}
	mAllocOOM.Inc(h.lane)
	return 0, ErrOutOfMemory
}

// Free returns a block to its class. It is an error to free an offset
// that is not an allocated block. Free is safe to call from recovery
// callbacks: clearing an already-clear bit is idempotent there, but a
// live double free is reported.
func (a *Allocator) Free(block nvram.Offset) error {
	return a.FreeWithBarrier(block, nil)
}

// FreeWithBarrier frees a block in two durable steps with a caller hook
// in between: (1) the allocation bit is cleared persistently, (2) barrier
// runs, (3) the block is published to the volatile free list and becomes
// reallocatable.
//
// The hook exists for callers that keep their own durable record of the
// pending free (e.g., a PMwCAS descriptor entry, §5.2): by erasing that
// record in the barrier — after the bit clear but before republication —
// a crash at any point either leaves the record intact with the free
// already idempotently replayable (no reallocation can have happened
// yet), or leaves no record and a fully freed block. Neither leaks nor
// double-frees a reallocated block.
func (a *Allocator) FreeWithBarrier(block nvram.Offset, barrier func()) error {
	a.checkPoisoned()
	ci := a.classOf(block)
	if ci < 0 {
		return ErrBadBlock
	}
	c := &a.classes[ci]
	idx := (block - c.blocksBase) / c.blockSize
	if !a.bitTest(c, idx) {
		return ErrDoubleFree
	}
	a.bitSet(c, idx, false)
	if barrier != nil {
		//lint:allow hotpath — caller-supplied durability barrier: nil on the point-op path (Free), a bounded flush in recovery replay (§6.3)
		barrier()
	}
	//lint:allow nonblock — free-list push under a per-class leaf lock; bounded, no I/O, no nesting (§6.3)
	c.mu.Lock()
	c.free = append(c.free, idx)
	c.mu.Unlock()
	mFrees.Inc(metrics.StripeAt(int(idx)))
	return nil
}

// FreeManyWithBarrier is FreeWithBarrier for a batch: every block's
// allocation bit is cleared persistently, then barrier runs once, then
// all blocks are published for reuse together. Blocks whose bits are
// already clear are skipped (idempotent replay after a crash). Invalid
// offsets make the whole call fail before anything is freed.
func (a *Allocator) FreeManyWithBarrier(blocks []nvram.Offset, barrier func()) error {
	a.checkPoisoned()
	for _, b := range blocks {
		if a.classOf(b) < 0 {
			return fmt.Errorf("%w: %#x", ErrBadBlock, b)
		}
	}
	type loc struct {
		c   *class
		idx uint64
	}
	cleared := make([]loc, 0, len(blocks))
	for _, b := range blocks {
		ci := a.classOf(b)
		c := &a.classes[ci]
		idx := (b - c.blocksBase) / c.blockSize
		if !a.bitTest(c, idx) {
			continue // already freed by an earlier, crashed attempt
		}
		a.bitSet(c, idx, false)
		cleared = append(cleared, loc{c, idx})
	}
	if barrier != nil {
		barrier()
	}
	for _, l := range cleared {
		//lint:allow nonblock — free-list push under a per-class leaf lock; bounded, no I/O, no nesting (§6.3)
		l.c.mu.Lock()
		l.c.free = append(l.c.free, l.idx)
		l.c.mu.Unlock()
	}
	mFrees.Add(metrics.StripeAt(len(cleared)), uint64(len(cleared)))
	return nil
}

// Recover completes or rolls back every in-flight delivery found in the
// durable slots. It must run single-threaded after a crash, before the
// PMwCAS recovery pass (§5.2: "the memory allocator runs its recovery
// procedure first ... every pending allocation call being either completed
// or rolled back"). It returns how many deliveries were completed and how
// many rolled back.
func (a *Allocator) Recover() (completed, rolledBack int) {
	for s := 0; s < a.nslots; s++ {
		slot := a.slots + nvram.Offset(s)*2*nvram.WordSize
		block := a.dev.Load(slot)
		if block == 0 {
			continue
		}
		target := a.dev.Load(slot + nvram.WordSize)
		ci := a.classOf(block)
		if ci < 0 {
			// Slot was torn (crash between the two slot stores can't
			// happen — they share a line and are flushed together — but a
			// corrupted image should not take recovery down).
			a.dev.Store(slot, 0)
			a.dev.Flush(slot)
			continue
		}
		c := &a.classes[ci]
		idx := (block - c.blocksBase) / c.blockSize
		if a.dev.Load(target) == block {
			// Handoff completed: the application owns the block. Make sure
			// the allocation bit survived (the bit is flushed before the
			// target, so it must have; assert by re-setting).
			a.bitSet(c, idx, true)
			completed++
		} else {
			// Handoff did not complete: reclaim the block.
			if a.bitTest(c, idx) {
				a.bitSet(c, idx, false)
			}
			rolledBack++
		}
		a.dev.Store(slot, 0)
		a.dev.Flush(slot)
	}
	// Bits may have changed; rebuild the volatile free lists.
	a.rebuildFreeLists()
	return completed, rolledBack
}

// CheckInUse reconciles the durable allocation bitmaps against the set
// of blocks a caller proved reachable from its structures' roots. It
// returns an error naming every discrepancy in either direction:
//
//   - allocated but unreachable: a leak — no root, descriptor, or
//     delivery record can ever free the block again;
//   - reachable but not allocated: a use-after-free in waiting — the
//     block can be handed out again while a structure still points at it.
//
// Intended for quiescent moments (crash-sweep checks, tests). Offsets in
// reachable that are not valid block starts are reported too.
func (a *Allocator) CheckInUse(reachable []nvram.Offset) error {
	seen := make(map[nvram.Offset]bool, len(reachable))
	var errs []string
	for _, b := range reachable {
		if a.classOf(b) < 0 {
			errs = append(errs, fmt.Sprintf("reachable offset %#x is not a block start", b))
			continue
		}
		seen[b] = true
	}
	for ci := range a.classes {
		c := &a.classes[ci]
		for i := uint64(0); i < c.count; i++ {
			block := c.blocksBase + i*c.blockSize
			switch allocated := a.bitTest(c, i); {
			case allocated && !seen[block]:
				errs = append(errs, fmt.Sprintf("leak: block %#x (size %d) allocated but unreachable", block, c.blockSize))
			case !allocated && seen[block]:
				errs = append(errs, fmt.Sprintf("dangling: block %#x (size %d) reachable but not allocated", block, c.blockSize))
			}
		}
	}
	if len(errs) == 0 {
		return nil
	}
	sort.Strings(errs)
	const maxShown = 8
	if len(errs) > maxShown {
		errs = append(errs[:maxShown], fmt.Sprintf("... and %d more", len(errs)-maxShown))
	}
	return fmt.Errorf("alloc: bitmap/reachability mismatch:\n  %s", joinLines(errs))
}

func joinLines(s []string) string {
	out := s[0]
	for _, l := range s[1:] {
		out += "\n  " + l
	}
	return out
}

// InUse returns the number of allocated blocks and bytes across all
// classes, computed from the durable bitmaps: one device load per bitmap
// word (64 blocks), so a stats read stays small next to the device-op
// counts it is reported beside.
func (a *Allocator) InUse() (blocks, bytes uint64) {
	for ci := range a.classes {
		c := &a.classes[ci]
		var n uint64
		for idx := uint64(0); idx < c.count; idx += 64 {
			w := a.dev.Load(a.bitWord(c, idx))
			if rem := c.count - idx; rem < 64 {
				w &= 1<<rem - 1 // bits past the class's last block are not blocks
			}
			n += uint64(bits.OnesCount64(w))
		}
		blocks += n
		bytes += n * c.blockSize
	}
	return blocks, bytes
}

// Capacity returns the total number of blocks and bytes across all size
// classes, allocated or not (the denominator for occupancy reporting).
func (a *Allocator) Capacity() (blocks, bytes uint64) {
	for ci := range a.classes {
		c := &a.classes[ci]
		blocks += c.count
		bytes += c.count * c.blockSize
	}
	return blocks, bytes
}

// FreeBlocks returns the number of free blocks in the class that would
// serve a request of the given size, plus all larger classes.
func (a *Allocator) FreeBlocks(size uint64) uint64 {
	ci := a.classFor(size)
	if ci < 0 {
		return 0
	}
	var n uint64
	for ; ci < len(a.classes); ci++ {
		c := &a.classes[ci]
		c.mu.Lock()
		n += uint64(len(c.free))
		c.mu.Unlock()
	}
	return n
}
