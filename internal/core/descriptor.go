package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pmwcas/internal/alloc"
	"pmwcas/internal/epoch"
	"pmwcas/internal/metrics"
	"pmwcas/internal/nvram"
)

// Mode names whether a pool provides persistence guarantees. The device
// decides it: a pool over a device built nvram.WithVolatile is Volatile.
type Mode int

const (
	// Persistent enables the full dirty-bit protocol, flushing, and
	// recovery (PMwCAS).
	Persistent Mode = iota
	// Volatile is a pool on a volatile device: flushes and fences cost
	// nothing there and no dirty bit is set, so the identical code path
	// becomes the Harris-style volatile MwCAS the paper derives PMwCAS
	// from.
	Volatile
)

func (m Mode) String() string {
	if m == Volatile {
		return "Volatile"
	}
	return "Persistent"
}

// Descriptor field offsets (bytes from the descriptor base). Layout:
//
//	+0                status
//	+8                count | callbackID<<16
//	+16..63           padding (header owns its cache line)
//	+64 + 32*i        word i: target address
//	+72 + 32*i        word i: expected (old) value
//	+80 + 32*i        word i: desired (new) value
//	+88 + 32*i        word i: policy | parent-descriptor offset << 8
//
// The header has a cache line to itself so entries and header can be
// persisted at distinct points: recovery trusts the persisted count only
// because every entry below it was flushed — and fenced — before the
// count was. Entries are never physically reordered after being written
// (execution sorts a volatile index array instead), so a torn flush can
// never mix two layouts of the same descriptor.
const (
	descStatusOff = 0
	descCountOff  = 8
	descWordsOff  = nvram.LineBytes
	wordStride    = 32

	wordAddrOff = 0
	wordOldOff  = 8
	wordNewOff  = 16
	wordMetaOff = 24

	countMask      = 0xffff
	callbackShift  = 16
	callbackIDMask = 0xffff

	metaPolicyMask  = 0xff
	metaParentShift = 8
)

// MaxWordsPerDescriptor bounds Config.WordsPerDescriptor. Beyond keeping
// the countMask honest, the constant sizes the stack arrays the execute
// path uses instead of heap slices (exec's sorted copy of the targets).
const MaxWordsPerDescriptor = 64

// descSize returns the padded byte size of a descriptor with capacity k.
func descSize(k int) uint64 {
	n := uint64(descWordsOff + k*wordStride)
	return (n + nvram.LineBytes - 1) / nvram.LineBytes * nvram.LineBytes
}

// PoolSize returns the region bytes needed for a pool of n descriptors
// with k words each, for layout planning.
func PoolSize(n, k int) uint64 { return uint64(n) * descSize(k) }

// FinalizeFunc is a user-supplied finalize callback (paper §2.2, §5.2):
// it runs when a descriptor's operation has concluded and its memory is
// safe to recycle — during normal execution (after the epoch bound) and
// during recovery. Because it must be invocable after a restart, it is
// registered under a small integer ID at startup and descriptors refer to
// it by ID, never by function pointer (§4.1).
type FinalizeFunc func(view DescriptorView, succeeded bool)

// Stats aggregates pool activity counters.
type Stats struct {
	Allocated uint64 // descriptors handed out by AllocateDescriptor
	Succeeded uint64 // PMwCAS operations that installed all new values
	Failed    uint64 // PMwCAS operations that failed
	Discarded uint64 // descriptors cancelled before execution
	Helps     uint64 // executions of a descriptor by a non-owner thread
	Reads     uint64 // PMwCASRead calls that had to help an in-flight op
}

// Config configures a Pool.
type Config struct {
	// Device is the NVRAM the descriptors and target words live on.
	Device *nvram.Device
	// Region is the dedicated descriptor area (paper §5.1). Its location
	// must be deterministic across restarts.
	Region nvram.Region
	// DescriptorCount is the number of descriptors in the pool. The paper
	// sizes this as a small multiple of the worker thread count.
	DescriptorCount int
	// WordsPerDescriptor is the fixed capacity of each descriptor, at
	// most MaxWordsPerDescriptor. The paper observes a handful (<= 4)
	// suffices for non-trivial structures.
	WordsPerDescriptor int
	// Mode must name the device's mode: Volatile for a device built
	// nvram.WithVolatile, Persistent otherwise. NewPool rejects a
	// mismatch; the device, not this field, is the source of truth.
	Mode Mode
	// Allocator, if set, is used by the recycling policies to free memory
	// blocks referenced by old/new values. Required if any descriptor uses
	// a policy other than PolicyNone.
	Allocator *alloc.Allocator
}

// Pool is a fixed array of PMwCAS descriptors in NVRAM plus the volatile
// machinery to allocate, execute, help, recycle, and recover them.
type Pool struct {
	dev   *nvram.Device
	reg   nvram.Region
	mode  Mode
	alloc *alloc.Allocator
	mgr   *epoch.Manager

	nDesc int
	kWord int
	size  uint64 // descriptor stride

	// dirty is DirtyFlag on a persistent device, 0 on a volatile one: the
	// same code path compiles both protocols.
	dirty uint64

	freeMu   sync.Mutex
	freeList []int // descriptor indexes ready for reuse

	// descs holds one volatile Descriptor struct per pool slot, recycled
	// in lockstep with the slot itself: AllocateDescriptor hands out
	// &descs[idx] reinitialized, so acquiring a descriptor never
	// heap-allocates. Each carries the owner's DRAM copy of its entries,
	// a kWord-long slice of one slab cut in NewPool. The owner stages
	// into both copies and reads only this one (so does RetireRun, once
	// the owner is done); helpers read NVRAM, and recovery rebuilds this
	// copy from it. The aliasing is safe because takeIndex grants
	// exclusive ownership of idx until RetireRun returns it.
	descs []Descriptor

	callbackMu sync.RWMutex
	callbacks  map[uint16]FinalizeFunc

	// poisoned, when non-nil, marks the pool as superseded (for example by
	// Store.Recover building a fresh pool over the same region). Every
	// entry point panics with the stored reason: a stale handle silently
	// racing the replacement pool would corrupt the shared NVRAM image.
	poisoned atomic.Pointer[string]

	stats struct {
		allocated, succeeded, failed, discarded, helps, reads atomic.Uint64
	}
}

// NewPool lays a descriptor pool over cfg.Region. On a fresh region all
// descriptors are Free. After a crash, call Recover before using the pool.
func NewPool(cfg Config) (*Pool, error) {
	if cfg.Device == nil {
		return nil, errors.New("core: Config.Device is required")
	}
	if cfg.DescriptorCount <= 0 {
		return nil, fmt.Errorf("core: DescriptorCount must be positive, got %d", cfg.DescriptorCount)
	}
	if cfg.WordsPerDescriptor <= 0 || cfg.WordsPerDescriptor > MaxWordsPerDescriptor {
		return nil, fmt.Errorf("core: WordsPerDescriptor must be in [1,%d], got %d", MaxWordsPerDescriptor, cfg.WordsPerDescriptor)
	}
	need := PoolSize(cfg.DescriptorCount, cfg.WordsPerDescriptor)
	if cfg.Region.Len < need {
		return nil, fmt.Errorf("core: region holds %d bytes, pool needs %d", cfg.Region.Len, need)
	}
	if !offsetOK(cfg.Region.End()) {
		return nil, fmt.Errorf("core: region end %#x does not fit in a flagged word", cfg.Region.End())
	}
	mode := Persistent
	if cfg.Device.Volatile() {
		mode = Volatile
	}
	if cfg.Mode != mode {
		return nil, fmt.Errorf("core: Config.Mode is %s but the device is %s", cfg.Mode, mode)
	}
	p := &Pool{
		dev:       cfg.Device,
		reg:       cfg.Region,
		mode:      mode,
		alloc:     cfg.Allocator,
		mgr:       epoch.NewManager(),
		nDesc:     cfg.DescriptorCount,
		kWord:     cfg.WordsPerDescriptor,
		size:      descSize(cfg.WordsPerDescriptor),
		descs:     make([]Descriptor, cfg.DescriptorCount),
		callbacks: make(map[uint16]FinalizeFunc),
	}
	if mode == Persistent {
		p.dirty = DirtyFlag
		// Arm the psan sanitizer: it must ignore the dirty bit when
		// comparing a word against its persisted image (the bit is
		// volatile metadata a flush intentionally leaves set). Volatile
		// devices stay unarmed: nothing on them is ever written back, so
		// persist-ordering has no meaning there.
		cfg.Device.SetShadowMask(DirtyFlag)
	}
	ents := make([]entry, p.nDesc*p.kWord)
	victims := make([]nvram.Offset, p.nDesc*p.kWord)
	for i := range p.descs {
		p.descs[i].ents = ents[i*p.kWord : (i+1)*p.kWord : (i+1)*p.kWord]
		p.descs[i].victims = victims[i*p.kWord : i*p.kWord : (i+1)*p.kWord]
	}
	p.freeList = make([]int, 0, p.nDesc)
	for i := p.nDesc - 1; i >= 0; i-- {
		if p.dev.Load(p.descOff(i)+descStatusOff)&^DirtyFlag == StatusFree {
			p.freeList = append(p.freeList, i)
		}
	}
	return p, nil
}

// Epochs returns the pool's epoch manager so data structures can register
// guards and piggyback their own deferred frees on it.
func (p *Pool) Epochs() *epoch.Manager { return p.mgr }

// Device returns the underlying NVRAM device.
func (p *Pool) Device() *nvram.Device { return p.dev }

// Mode returns the pool's persistence mode, which its device decided.
func (p *Pool) Mode() Mode { return p.mode }

// WordsPerDescriptor returns each descriptor's fixed word capacity.
func (p *Pool) WordsPerDescriptor() int { return p.kWord }

// Capacity returns the total number of descriptors.
func (p *Pool) Capacity() int { return p.nDesc }

// FreeDescriptors returns how many descriptors are currently allocatable.
func (p *Pool) FreeDescriptors() int {
	p.freeMu.Lock()
	defer p.freeMu.Unlock()
	return len(p.freeList)
}

// Stats returns a snapshot of the pool's activity counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Allocated: p.stats.allocated.Load(),
		Succeeded: p.stats.succeeded.Load(),
		Failed:    p.stats.failed.Load(),
		Discarded: p.stats.discarded.Load(),
		Helps:     p.stats.helps.Load(),
		Reads:     p.stats.reads.Load(),
	}
}

// ErrCallbackRegistered reports a duplicate finalize-callback ID.
var ErrCallbackRegistered = errors.New("core: callback id already registered")

// RegisterCallback installs a finalize callback under id (1..65535). Must
// be called at startup, before any descriptor referencing id executes —
// including before Recover, which may need to invoke it. ID 0 is reserved
// for the default policy-based finalizer.
func (p *Pool) RegisterCallback(id uint16, fn FinalizeFunc) error {
	if id == 0 {
		return errors.New("core: callback id 0 is reserved")
	}
	if fn == nil {
		return errors.New("core: nil callback")
	}
	p.callbackMu.Lock()
	defer p.callbackMu.Unlock()
	if _, dup := p.callbacks[id]; dup {
		return fmt.Errorf("%w: %d", ErrCallbackRegistered, id)
	}
	p.callbacks[id] = fn
	return nil
}

func (p *Pool) callback(id uint16) FinalizeFunc {
	//lint:allow nonblock — read-locked map lookup of a registered finalizer; registration is startup-only (§6.3)
	p.callbackMu.RLock()
	defer p.callbackMu.RUnlock()
	return p.callbacks[id]
}

// descOff returns the base offset of descriptor i.
func (p *Pool) descOff(i int) nvram.Offset {
	return p.reg.Base + uint64(i)*p.size
}

// descIndex maps a descriptor base offset back to its index, or -1.
func (p *Pool) descIndex(off nvram.Offset) int {
	if off < p.reg.Base || off >= p.reg.Base+uint64(p.nDesc)*p.size {
		return -1
	}
	if (off-p.reg.Base)%p.size != 0 {
		return -1
	}
	return int((off - p.reg.Base) / p.size)
}

// wordOff returns the base of word descriptor i within descriptor d.
func wordOff(d nvram.Offset, i int) nvram.Offset {
	return d + descWordsOff + uint64(i)*wordStride
}

// flushEntries persists the lines holding a descriptor's first n entries
// (not the header, and not the capacity beyond n, which no one wrote) and
// returns how many lines it flushed.
func (p *Pool) flushEntries(d nvram.Offset, n int) uint64 {
	var lines uint64
	for off := d + descWordsOff; off < wordOff(d, n); off += nvram.LineBytes {
		p.dev.Flush(off)
		lines++
	}
	return lines
}

// flushHeader persists a descriptor's status and count. Callers must have
// flushed (and fenced) the entries the new count covers first.
func (p *Pool) flushHeader(d nvram.Offset) {
	p.dev.Flush(d + descStatusOff)
}

// persist is Persist for a value the pool found dirty (so never on a
// volatile device, which sets no dirty bit). A non-nil o charges the
// flush to that operation's cost observation (one Flush, no fence).
func (p *Pool) persist(addr nvram.Offset, value uint64, o *opObs) {
	Persist(p.dev, addr, value)
	if o != nil {
		o.flushes++
	}
}

// readStatus returns a descriptor's status with the dirty bit masked.
func (p *Pool) readStatus(d nvram.Offset) uint64 {
	return p.dev.Load(d+descStatusOff) &^ DirtyFlag
}

// Poison marks the pool dead. Any subsequent use — new handles, reads,
// descriptor allocation or execution — panics with the given reason.
// Store.Recover poisons the pool it replaces: outstanding handles and
// guards still reference it, and letting them operate on the same NVRAM
// region as the replacement pool would be silent cross-pool corruption.
// Failing loudly turns that into an immediate stack trace.
func (p *Pool) Poison(reason string) {
	p.poisoned.Store(&reason)
}

// checkPoisoned panics if the pool has been poisoned. Called on every
// entry point; one atomic pointer load when healthy.
func (p *Pool) checkPoisoned() {
	if r := p.poisoned.Load(); r != nil {
		panic("core: use of poisoned pool: " + *r)
	}
}

// NewHandle returns a thread context for issuing PMwCAS operations.
// Handles must not be shared between goroutines; create one per worker.
func (p *Pool) NewHandle() *Handle {
	p.checkPoisoned()
	return &Handle{pool: p, guard: p.mgr.Register(), lane: metrics.NextStripe()}
}

// A Handle is one thread's interface to the pool: it carries the thread's
// epoch guard, its metrics lane, and a small private cache of free
// descriptors (the paper's per-thread descriptor partitions, §5.1).
type Handle struct {
	pool  *Pool
	guard *epoch.Guard
	lane  metrics.Stripe
	ops   uint64 // AllocateDescriptor count, draws the 1-in-8 sample
	cache []int
}

// handleCacheSize bounds the per-handle free descriptor cache.
const handleCacheSize = 16

// Guard exposes the handle's epoch guard so index code can protect entire
// traversals instead of individual reads.
func (h *Handle) Guard() *epoch.Guard { return h.guard }

// Pool returns the pool this handle draws from.
func (h *Handle) Pool() *Pool { return h.pool }

// takeIndex acquires a free descriptor index, refilling the private cache
// from the shared list when needed. Returns -1 if the pool is exhausted.
func (h *Handle) takeIndex() int {
	if len(h.cache) == 0 {
		p := h.pool
		//lint:allow nonblock — bounded batch refill of the private descriptor cache; no I/O under the lock (§6.3)
		p.freeMu.Lock()
		n := len(p.freeList)
		take := handleCacheSize
		if take > n {
			take = n
		}
		h.cache = append(h.cache, p.freeList[n-take:]...)
		p.freeList = p.freeList[:n-take]
		p.freeMu.Unlock()
	}
	if len(h.cache) == 0 {
		return -1
	}
	i := h.cache[len(h.cache)-1]
	h.cache = h.cache[:len(h.cache)-1]
	return i
}

func (p *Pool) releaseIndex(i int) {
	//lint:allow nonblock — bounded free-list push; no I/O under the lock (§6.3)
	p.freeMu.Lock()
	p.freeList = append(p.freeList, i)
	p.freeMu.Unlock()
}

// ErrPoolExhausted is returned when every descriptor is in flight or
// pending reclamation. The paper sizes pools so this does not happen in
// steady state. Callers that receive it while holding an epoch guard
// must UNWIND — exit the guard, collect, and retry the whole operation —
// rather than spin: a guard held while waiting pins the very garbage
// whose reclamation would satisfy the allocation.
var ErrPoolExhausted = errors.New("core: descriptor pool exhausted")

// ReclaimPause is the unwind helper for ErrPoolExhausted: with no guard
// held, advance the epoch, sweep the garbage list, and yield.
func (p *Pool) ReclaimPause() {
	p.mgr.Advance()
	//lint:allow hotpath — contention/exhaustion backoff, not the per-op path; a sweep's finalize run pays its two fences once for all its descriptors (§6.3)
	p.mgr.Collect()
	runtime.Gosched()
}

// AllocateDescriptor prepares a Free descriptor for a new operation
// (paper §2.2). The optional callbackID selects a registered finalize
// callback invoked when the operation's memory is recycled; 0 means the
// default policy-based finalizer.
//
//pmwcas:hotpath — descriptor acquisition brackets every PMwCAS; pooled slots exist precisely so this never heap-allocates
func (h *Handle) AllocateDescriptor(callbackID uint16) (*Descriptor, error) {
	h.pool.checkPoisoned()
	idx := h.takeIndex()
	if idx < 0 {
		// Reclamation may simply be lagging: push the epoch and retry once.
		h.pool.mgr.Advance()
		//lint:allow hotpath — exhaustion-recovery sweep, not the per-op path; runs only when the free list is empty (§6.3)
		h.pool.mgr.Collect()
		if idx = h.takeIndex(); idx < 0 {
			mPoolExhausted.Inc(h.lane)
			return nil, ErrPoolExhausted
		}
	}
	p := h.pool
	d := p.descOff(idx)
	if got := p.readStatus(d); got != StatusFree {
		panic(fmt.Sprintf("core: descriptor %d on free list has status %s", idx, statusName(got)))
	}
	// Draw the sample once per descriptor: a sampled operation runs its
	// latency clocks and records its whole lifecycle in the trace ring,
	// and no other operation pays for either (see latSampleMask).
	var traced bool
	if metrics.On() {
		h.ops++
		traced = h.ops&latSampleMask == 0
	}
	if traced {
		metrics.DefaultTrace().Record(metrics.TraceAlloc, uint64(d), h.lane, uint64(callbackID))
	}
	// Count must be durably zero before any entry is reserved, so that a
	// crash mid-initialization cannot resurrect entries from the
	// descriptor's previous incarnation (§5.1). The finalizer already
	// zeroed it persistently; initialize the volatile view only.
	p.dev.Store(d+descCountOff, uint64(callbackID)<<callbackShift)
	p.stats.allocated.Add(1)
	ds := &p.descs[idx]
	*ds = Descriptor{h: h, off: d, idx: idx, cb: callbackID, traced: traced, ents: ds.ents, victims: ds.victims}
	return ds, nil
}

// A Descriptor is the volatile handle to one in-NVRAM PMwCAS descriptor
// between AllocateDescriptor and Execute/Discard. It is single-owner:
// only the allocating handle's goroutine may call its methods. The
// struct itself is pooled per slot and recycled once the operation's
// epoch retires, so a *Descriptor retained past Execute/Discard must
// not be used again — the done flag catches immediate reuse, but after
// the slot is re-issued the pointer aliases the next operation.
type Descriptor struct {
	h    *Handle
	off  nvram.Offset
	idx  int
	n    int     // entries added so far
	cb   uint16  // finalize callback ID
	done bool    // Execute or Discard has run
	ents []entry // ents[:n] is the owner's DRAM copy of the NVRAM entries

	// traced marks the 1-in-8 sample AllocateDescriptor drew: its latency
	// clocks run and its owner-side lifecycle events (alloc, execute,
	// discard, decide, retire, finalize) reach the trace ring. Helpers
	// never read it; they record their help and decide events always.
	traced bool

	// victims holds the blocks this descriptor's finalize queued until
	// RetireRun gathers them into its run's batch; empty between
	// finalizes. It starts as a kWord-capacity cut of one slab, enough
	// for one victim per entry, and keeps any growth (a Bw-tree chain),
	// so queueing does not heap-allocate.
	victims []nvram.Offset
}

// entry is one descriptor entry as the owner staged it.
type entry struct {
	addr     nvram.Offset
	old, new uint64
	policy   Policy
	reserved bool // new is a block ReserveEntry took, for Execute to activate
}

// Offset returns the descriptor's NVRAM offset (useful in tests/tools).
func (d *Descriptor) Offset() nvram.Offset { return d.off }

// Errors from descriptor construction.
var (
	ErrDescriptorFull   = errors.New("core: descriptor word capacity exceeded")
	ErrDuplicateAddress = errors.New("core: address already specified in this descriptor")
	ErrFlagBits         = errors.New("core: operand carries reserved flag bits")
	ErrDescriptorDone   = errors.New("core: descriptor already executed or discarded")
	ErrAddressNotFound  = errors.New("core: address not in descriptor")
	ErrBadAddress       = errors.New("core: bad target address")
	ErrEmptyDescriptor  = errors.New("core: executing empty descriptor")
)

// checkAddable validates the first nvals of vals for a new entry. It
// takes a fixed-size array rather than a variadic slice, and returns
// plain sentinels rather than fmt.Errorf wrappers: both sit on the
// AddWord/ReserveEntry hot path, where a variadic call or an error
// allocation is a per-entry heap tax.
func (d *Descriptor) checkAddable(addr nvram.Offset, vals [2]uint64, nvals int) error {
	if d.done {
		return ErrDescriptorDone
	}
	if d.n >= d.h.pool.kWord {
		return ErrDescriptorFull
	}
	if !offsetOK(addr) || addr%nvram.WordSize != 0 {
		return ErrBadAddress
	}
	for _, v := range vals[:nvals] {
		if !IsClean(v) {
			return ErrFlagBits
		}
	}
	for _, e := range d.ents[:d.n] {
		if e.addr == addr {
			return ErrDuplicateAddress
		}
	}
	return nil
}

// storeEntry writes e as entry i into both copies: the four NVRAM words
// and the owner's DRAM entry.
func (d *Descriptor) storeEntry(i int, e entry) {
	p := d.h.pool
	w := wordOff(d.off, i)
	p.dev.Store(w+wordAddrOff, e.addr)
	p.dev.Store(w+wordOldOff, e.old)
	p.dev.Store(w+wordNewOff, e.new)
	p.dev.Store(w+wordMetaOff, uint64(e.policy)|d.off<<metaParentShift)
	d.ents[i] = e
}

// storeCount writes the header's count word from the owner's copy.
func (d *Descriptor) storeCount() {
	d.h.pool.dev.Store(d.off+descCountOff, uint64(d.cb)<<callbackShift|uint64(d.n))
}

// addEntry appends e, then the count that covers it.
func (d *Descriptor) addEntry(e entry) {
	d.storeEntry(d.n, e)
	d.n++
	d.storeCount()
}

// AddWord specifies one word to modify: compare against old, install new
// (paper §2.2). No memory recycling is associated with the word.
//
//pmwcas:hotpath — called up to four times per PMwCAS to stage entries; allocation-free staging keeps Execute's cost model honest
func (d *Descriptor) AddWord(addr nvram.Offset, old, new uint64) error {
	return d.AddWordWithPolicy(addr, old, new, PolicyNone)
}

// AddWordWithPolicy is AddWord with an explicit recycling policy for the
// old/new values (Table 1). Use it when both values are known up front —
// e.g., PolicyFreeOldOnSuccess when unlinking a node whose address is
// already in hand.
func (d *Descriptor) AddWordWithPolicy(addr nvram.Offset, old, new uint64, policy Policy) error {
	if err := d.checkAddable(addr, [2]uint64{old, new}, 2); err != nil {
		return err
	}
	d.addEntry(entry{addr: addr, old: old, new: new, policy: policy})
	return nil
}

// ReserveEntry adds an entry that installs block, which the caller
// reserved from the pool's allocator (alloc.Handle.Reserve) and filled,
// and hands the block to the descriptor (paper §2.2, §5.2), its only
// owner from here: Execute activates it, a failed operation frees it by
// policy, Discard returns it, and a crash before Execute sets its bit
// leaves it free. On an error the block goes back to the allocator. It
// only stages: it writes the block's lines back and leaves the fences and
// the bit to Execute, which persists every handoff of the descriptor at
// once.
func (d *Descriptor) ReserveEntry(addr nvram.Offset, old uint64, block nvram.Offset, policy Policy) error {
	p := d.h.pool
	if err := d.checkAddable(addr, [2]uint64{old, block}, 2); err != nil {
		p.alloc.Unreserve(block)
		return err
	}
	d.addEntry(entry{addr: addr, old: old, new: block, policy: policy, reserved: true})
	p.alloc.FlushBlock(block)
	return nil
}

// RemoveWord removes a previously specified target word (paper §2.2). A
// block a removed ReserveEntry entry held is the caller's again.
func (d *Descriptor) RemoveWord(addr nvram.Offset) error {
	if d.done {
		return ErrDescriptorDone
	}
	for i := range d.ents[:d.n] {
		if d.ents[i].addr == addr {
			// Move the last entry into the hole, from the owner's copy.
			if last := d.n - 1; i != last {
				d.storeEntry(i, d.ents[last])
			}
			d.n--
			d.storeCount()
			return nil
		}
	}
	return fmt.Errorf("%w: %#x", ErrAddressNotFound, addr)
}

// WordCount returns the number of entries currently in the descriptor.
func (d *Descriptor) WordCount() int { return d.n }

// Discard cancels the operation before execution (paper §2.2). No target
// word is modified. Blocks reserved via ReserveEntry go straight back to
// the allocator and their entries are dropped, so the deferred finalize
// cannot free a block that someone has reserved and activated since.
func (d *Descriptor) Discard() error {
	if d.done {
		return ErrDescriptorDone
	}
	d.done = true
	p := d.h.pool
	n := 0
	for _, e := range d.ents[:d.n] {
		if e.reserved {
			p.alloc.Unreserve(e.new)
			continue
		}
		d.ents[n] = e
		n++
	}
	d.n = n
	p.stats.discarded.Add(1)
	if d.traced {
		metrics.DefaultTrace().Record(metrics.TraceDiscard, uint64(d.off), d.h.lane, 0)
	}
	p.dev.ShadowDrop()
	p.retire(d, false)
	return nil
}

// retire hands a concluded descriptor to the epoch machinery: once no
// thread can dereference it, its memory policies run and it returns to
// the free list (§5.1).
func (p *Pool) retire(d *Descriptor, succeeded bool) {
	var aux uint64
	if succeeded {
		aux = 1
	}
	if d.traced {
		metrics.DefaultTrace().Record(metrics.TraceRetire, uint64(d.off), d.h.lane, aux)
	}
	p.mgr.DeferRetire(p, uint64(d.off), uint64(d.idx)<<1|aux)
}

// RetireRun implements epoch.Retiree for concluded descriptors and is the
// pool's one finalize body: Recover runs it too. offs are the
// descriptors' NVRAM offsets; each aux packs the slot index (high bits)
// and the success bit (bit 0). The pool registers itself with
// DeferRetire instead of a closure so the retire path never
// heap-allocates.
//
// The run persists in two barriers, however many descriptors it holds:
//
//  1. every descriptor's recycling policies (or registered callback)
//     queue its victims;
//  2. every victim's allocation bit is cleared, each bitmap line is
//     written back once, and a fence orders the clears
//     (alloc.FreeManyWithBarrier);
//  3. every header is reset to Free with zero count and flushed, and a
//     fence orders the resets;
//  4. only then are the victims reallocatable and the slots returned.
//
// A crash before a reset persists leaves its entries visible, so recovery
// re-runs the frees, skipping the bits already clear; no victim can have
// been reallocated in between. A run with no victims skips step 2.
func (p *Pool) RetireRun(offs, auxs []uint64) {
	var buf [128]nvram.Offset // the run's victims; a longer batch spills to the heap
	victims := buf[:0]
	for i, aux := range auxs {
		ds := &p.descs[aux>>1]
		view := DescriptorView{pool: p, off: offs[i], n: ds.n, ents: ds.ents[:ds.n], victims: &ds.victims}
		if fn := p.callback(ds.cb); fn != nil {
			fn(view, aux&1 != 0)
		} else {
			view.applyPolicies(aux&1 != 0)
		}
		victims = append(victims, ds.victims...)
		ds.victims = ds.victims[:0]
	}
	reset := func() {
		for _, d := range offs {
			p.dev.Store(d+descCountOff, 0)
			p.dev.Store(d+descStatusOff, StatusFree)
			p.flushHeader(d) // status and count share the header line
		}
		p.dev.Fence()
	}
	if len(victims) > 0 {
		_ = p.alloc.FreeManyWithBarrier(victims, reset)
	} else {
		reset()
	}
	// Read each slot's sample flag before the slot goes back on the free
	// list, where a new owner rewrites it. Recovery's run rebuilds no flag
	// and records nothing.
	for i, aux := range auxs {
		if p.descs[aux>>1].traced {
			metrics.DefaultTrace().Record(metrics.TraceFinalize, offs[i], metrics.StripeAt(int(offs[i]/nvram.LineBytes)), aux&1)
		}
	}
	//lint:allow nonblock — bounded free-list push of the run's slots; no I/O under the lock (§6.3)
	p.freeMu.Lock()
	for _, aux := range auxs {
		p.freeList = append(p.freeList, int(aux>>1))
	}
	p.freeMu.Unlock()
}

// DescriptorView is a read-only view of a concluded descriptor handed to
// finalize callbacks (normal execution and recovery).
type DescriptorView struct {
	pool    *Pool
	off     nvram.Offset
	n       int
	ents    []entry         // the owner's DRAM copy (recovery rebuilds it from NVRAM)
	victims *[]nvram.Offset // the blocks FreeBlock queued, freed by RetireRun
}

// WordCount returns the number of entries.
func (v DescriptorView) WordCount() int { return v.n }

// Address returns entry i's target address.
func (v DescriptorView) Address(i int) nvram.Offset { return v.ents[i].addr }

// Old returns entry i's expected value.
func (v DescriptorView) Old(i int) uint64 { return v.ents[i].old }

// New returns entry i's desired value.
func (v DescriptorView) New(i int) uint64 { return v.ents[i].new }

// Policy returns entry i's recycling policy.
func (v DescriptorView) Policy(i int) Policy { return v.ents[i].policy }

// FreeBlock queues an allocator block to be freed when the descriptor
// is reset (see RetireRun); call it only from the callback the view was
// handed to. It is exported on the view so custom callbacks can mix
// object-specific destructor work with the default freeing. An offset
// that is not a block start is refused, so one bad value cannot fail
// the whole batch.
func (v DescriptorView) FreeBlock(off nvram.Offset) error {
	if v.pool.alloc == nil {
		return errors.New("core: pool has no allocator")
	}
	if _, err := v.pool.alloc.BlockSize(off); err != nil {
		return err
	}
	*v.victims = append(*v.victims, off)
	return nil
}

// Victim returns the block entry i's policy frees when the operation
// concluded as succeeded says (Table 1), or 0 when it frees none.
func (v DescriptorView) Victim(i int, succeeded bool) uint64 {
	var victim uint64
	switch v.Policy(i) {
	case PolicyFreeOne:
		if succeeded {
			victim = v.Old(i)
		} else {
			victim = v.New(i)
		}
	case PolicyFreeNewOnFailure:
		if !succeeded {
			victim = v.New(i)
		}
	case PolicyFreeOldOnSuccess:
		if succeeded {
			victim = v.Old(i)
		}
	}
	if !IsClean(victim) {
		return 0
	}
	return victim
}

// applyPolicies is the default finalizer: Table 1 semantics.
func (v DescriptorView) applyPolicies(succeeded bool) {
	if v.pool.alloc == nil {
		return
	}
	for i := 0; i < v.n; i++ {
		if victim := v.Victim(i, succeeded); victim != 0 {
			_ = v.FreeBlock(victim)
		}
	}
}
