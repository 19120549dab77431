// Package alloc implements a persistent memory allocator with the
// reserve/activate interface the PMwCAS paper assumes (§5.2).
//
// The problem it solves: `p = malloc(n)` is two steps — reserving the
// block and storing its address into p — and a crash between them leaks
// the block (it is owned by neither the allocator nor the application).
// Following the paper (and posix_memalign-style NVM allocators [17, 33]),
// an allocation is three steps, and the ownership order closes the gap:
//
//   - Reserve pops a free block and zeroes it with plain stores. Nothing
//     is durable yet: the bit is clear, so a crash leaves the block free.
//   - The caller fills the block with plain stores.
//   - The owner takes it. Activate stores the address into a target word;
//     core.Descriptor.ReserveEntry stages it as a descriptor entry, which
//     Execute activates. Either way the block's lines and the owner are
//     flushed once and fenced, and only then is the allocation bit set.
//
// A set bit thus always has a durable owner and a durable fill, and a
// crash before the bit persists leaves a free block, which the owner's
// recovery frees again as a no-op (the bit is already clear). That
// recovery must run before anything allocates again, or the owner would
// free the block under its next owner. The allocator itself has nothing
// to recover.
//
// Layout inside the allocator's region (deterministic across restarts):
//
//	[ class 0: allocation bitmap ][ class 0: blocks ... ]
//	[ class 1: allocation bitmap ][ class 1: blocks ... ]
//	...
//
// Durable state is only the bitmaps. Free lists are volatile and rebuilt
// from the bitmaps at startup, mirroring the paper's observation that
// volatile bookkeeping needs no recovery of its own.
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

// Observability (DRAM-only; see internal/metrics). alloc_ns times a
// Reserve (the free-list pop and the zeroing); the handoff's flushes are
// the owner's, shared with its own. A block is counted allocated when its
// bit is set.
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

// MetaSize returns the number of bytes a spec needs for the allocator's
// region, so callers can size their layout carve. maxHandles is unused;
// it stays for the benchmark ladder (bench/ladder.go), which passes it.
func MetaSize(spec []Class, maxHandles int) uint64 {
	var total uint64
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
// yields the pre-crash allocator, ready for use: the bitmaps are the
// whole durable state, so there is no recovery pass. maxHandles is
// unused; it stays for the benchmark ladder (bench/ladder.go), which
// passes it.
func New(dev *nvram.Device, region nvram.Region, spec []Class, maxHandles int) (*Allocator, error) {
	if len(spec) == 0 {
		return nil, errors.New("alloc: empty class spec")
	}
	a := &Allocator{dev: dev, region: region}
	off := region.Base

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

// A Handle is one thread's allocation context. Handles must not be
// shared between goroutines.
type Handle struct {
	a    *Allocator
	lane metrics.Stripe
}

// NewHandle returns a new allocation context.
func (a *Allocator) NewHandle() *Handle {
	a.checkPoisoned()
	return &Handle{a: a, lane: metrics.NextStripe()}
}

// Reserve pops a free block of at least size bytes and zeroes it with
// plain stores, so a set bit never exposes a stale incarnation. It
// flushes nothing and fences nothing: the block stays volatile and its
// bit clear, so until an owner takes it a crash leaves it free. The
// caller fills it and hands it over with Activate or
// core.Descriptor.ReserveEntry, which write every line back once, fill
// and zeroing together; an error path before the handoff returns it with
// Unreserve.
//
// If the preferred size class is exhausted, the next larger class is
// used (internal fragmentation instead of failure).
//
//pmwcas:hotpath — runs inside index SMOs and descriptor refills; a heap allocation here defeats the persistent allocator's whole point
func (h *Handle) Reserve(size uint64) (nvram.Offset, error) {
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
		for off := block; off < block+c.blockSize; off += nvram.WordSize {
			a.dev.Store(off, 0)
		}
		if !t0.IsZero() {
			mAllocNs.ObserveSince(h.lane, t0)
		}
		return block, nil
	}
	mAllocOOM.Inc(h.lane)
	return 0, ErrOutOfMemory
}

// Unreserve returns a reserved block that no owner took back to its free
// list. Its bit was never set, so nothing durable changes.
func (a *Allocator) Unreserve(block nvram.Offset) {
	if c, idx, ok := a.locate(block); ok {
		c.push(idx)
	}
}

// Activate hands a filled reserved block to the word target, for an owner
// that is not a descriptor (a volatile baseline's scratch word), in this
// order:
//
//  1. every line of the block is flushed;
//  2. the offset is stored into target and flushed;
//  3. a fence orders both before
//  4. the allocation bit is set and flushed (MarkAllocated).
//
// So a set bit always has a durable owner and a durable fill. A crash
// before step 4 persists leaves the bit clear: the block is free after the
// restart, and the target's owner, whose recovery frees what target names,
// finds the bit already clear — a no-op. Activate ends without a fence:
// every caller fences before it publishes the block (Execute does), and
// that fence makes the bit durable too; a caller whose target is itself
// the published word fences on return. The previous contents of the
// target word are overwritten.
func (h *Handle) Activate(block, target nvram.Offset) {
	a := h.a
	a.FlushBlock(block)
	a.dev.Store(target, block)
	a.dev.Flush(target)
	a.dev.Fence()
	a.MarkAllocated(block)
}

// Alloc is Reserve then Activate, for a caller with nothing to fill: the
// block arrives zeroed in target.
func (h *Handle) Alloc(size uint64, target nvram.Offset) (nvram.Offset, error) {
	block, err := h.Reserve(size)
	if err != nil {
		return 0, err
	}
	h.Activate(block, target)
	return block, nil
}

// FlushBlock writes back every line of a reserved block, without a fence:
// the first step of a handoff.
func (a *Allocator) FlushBlock(block nvram.Offset) {
	if c, _, ok := a.locate(block); ok {
		for off := block; off < block+c.blockSize; off += nvram.LineBytes {
			a.dev.Flush(off)
		}
	}
}

// MarkAllocated sets and flushes a handed-off block's allocation bit,
// without a fence: the last step of a handoff. The caller must already
// have made the block's lines and its owner durable and fenced them.
func (a *Allocator) MarkAllocated(block nvram.Offset) {
	if c, idx, ok := a.locate(block); ok {
		a.bitSet(c, idx, true)
		mAllocs.Inc(metrics.StripeAt(int(idx)))
	}
}

// locate maps a block offset to its class and index within the class.
func (a *Allocator) locate(block nvram.Offset) (*class, uint64, bool) {
	ci := a.classOf(block)
	if ci < 0 {
		return nil, 0, false
	}
	c := &a.classes[ci]
	return c, (block - c.blocksBase) / c.blockSize, true
}

// push puts a block whose bit is clear back on its class's free list.
func (c *class) push(idx uint64) {
	//lint:allow nonblock — free-list push under a per-class leaf lock; bounded, no I/O, no nesting (§6.3)
	c.mu.Lock()
	c.free = append(c.free, idx)
	c.mu.Unlock()
}

// Free returns a block to its class: its allocation bit is cleared
// persistently, then the block is reallocatable. It is an error to free
// an offset that is not a block start (ErrBadBlock) or a block whose bit
// is already clear (ErrDoubleFree); recovery callbacks ignore the latter,
// which is how an allocation whose bit never persisted is released.
func (a *Allocator) Free(block nvram.Offset) error {
	a.checkPoisoned()
	c, idx, ok := a.locate(block)
	if !ok {
		return ErrBadBlock
	}
	if !a.bitTest(c, idx) {
		return ErrDoubleFree
	}
	a.bitSet(c, idx, false)
	c.push(idx)
	mFrees.Inc(metrics.StripeAt(int(idx)))
	return nil
}

// FreeManyWithBarrier frees a batch behind one barrier: every block's
// allocation bit is cleared and flushed, a fence orders the clears, then
// barrier runs, and only then are the blocks put back on the free lists.
//
// The barrier is where a caller durably drops its own record of the
// pending free (a descriptor's header reset).
// A crash before the barrier persists leaves that record naming blocks
// whose bits may already be clear, and its replay skips them; a crash
// after leaves no record. No block can be reallocated while a record
// still names it, so a replay never frees another owner's block.
//
// Blocks whose bits are already clear are skipped, so a replay after a
// crash is idempotent; the barrier still runs. Invalid offsets make the
// whole call fail before anything is freed. blocks is reused as scratch:
// on return its prefix holds the blocks this call freed.
func (a *Allocator) FreeManyWithBarrier(blocks []nvram.Offset, barrier func()) error {
	a.checkPoisoned()
	for _, b := range blocks {
		if a.classOf(b) < 0 {
			return fmt.Errorf("%w: %#x", ErrBadBlock, b)
		}
	}
	n := 0
	for _, b := range blocks {
		c, idx, _ := a.locate(b)
		if !a.bitTest(c, idx) {
			continue // freed by an earlier, crashed attempt (or listed twice)
		}
		a.bitSet(c, idx, false)
		blocks[n] = b
		n++
	}
	a.dev.Fence()
	if barrier != nil {
		//lint:allow hotpath — caller-supplied durability barrier: a descriptor header reset, bounded stores and flushes (§6.3)
		barrier()
	}
	for _, b := range blocks[:n] {
		c, idx, _ := a.locate(b)
		c.push(idx)
	}
	mFrees.Add(metrics.StripeAt(n), uint64(n))
	return nil
}

// Allocated reports whether block is a block start whose allocation bit
// is set.
func (a *Allocator) Allocated(block nvram.Offset) bool {
	c, idx, ok := a.locate(block)
	return ok && a.bitTest(c, idx)
}

// CheckInUse reconciles the durable allocation bitmaps against the set
// of blocks a caller proved reachable from its structures' roots. It
// returns an error naming every discrepancy in either direction:
//
//   - allocated but unreachable: a leak — no root or descriptor can ever
//     free the block again;
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

// Blocks returns the number of blocks, free or not, in the class that
// would serve a request of the given size, plus all larger classes: the
// most blocks of that size the arena can ever hold at once.
func (a *Allocator) Blocks(size uint64) uint64 {
	ci := a.classFor(size)
	if ci < 0 {
		return 0
	}
	var n uint64
	for ; ci < len(a.classes); ci++ {
		n += a.classes[ci].count
	}
	return n
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
