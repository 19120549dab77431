// Package nvram simulates a byte-addressable non-volatile memory device
// fronted by volatile CPU caches, as assumed by the PMwCAS paper's system
// model (Section 2.1).
//
// The device is a word-addressed arena (64-bit words). It maintains two
// images of memory:
//
//   - the cache view: the values that loads, stores and CAS operations
//     observe. This models the contents of the volatile CPU caches plus
//     NVRAM (i.e., the coherent view all threads share while power is on).
//   - the persisted image: the values that have actually been written back
//     to NVRAM. Only this image survives a Crash.
//
// A store makes its 64-byte cache line dirty. Flush (the analogue of
// CLWB/CLFLUSH) writes the line back to the persisted image and clears the
// dirty mark. Crash discards the cache view: every line that was dirty at
// the time of the crash reverts to its last persisted contents. This makes
// missing write-backs observable — an algorithm that forgets a flush
// produces real, testable corruption after Crash+Recover, which is exactly
// the property the paper's dirty-bit protocol must defend against.
//
// Real hardware also persists lines opportunistically when they are evicted
// from the cache (paper, footnote 1). That behaviour can be enabled with
// WithEviction; it is off by default so tests exercise the strictest
// possible persistence model.
//
// A device built WithVolatile is plain DRAM: there is nothing to write
// back, so Flush, FlushAll and Fence return at once and are not counted.
// Whether memory is volatile is decided here, once, at construction:
// layers above flush and fence unconditionally and read Volatile only
// where the answer changes more than a write-back (PMwCAS's dirty bit).
//
// All word accesses are performed with sync/atomic and are safe for
// concurrent use. Crash, Recover, Snapshot and Restore require quiescence:
// the caller must guarantee no concurrent accessors (a crash, after all,
// stops every thread).
package nvram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// WordSize is the size of a device word in bytes.
const WordSize = 8

// LineWords is the number of 64-bit words in a simulated cache line.
const LineWords = 8

// LineBytes is the size of a simulated cache line in bytes.
const LineBytes = LineWords * WordSize

// Offset addresses a word in the device arena. Offsets are in bytes and
// must be 8-byte aligned. Offset 0 is valid but conventionally reserved by
// higher layers as the nil pointer.
type Offset = uint64

// Stats holds operation counters for a Device. Counters are cumulative
// since device creation or the last ResetStats.
type Stats struct {
	Loads        uint64 // word loads
	Stores       uint64 // word stores
	CASes        uint64 // compare-and-swap attempts
	Flushes      uint64 // explicit line write-backs (CLWB equivalents)
	CleanFlushes uint64 // of Flushes, those that found the line already clean
	Fences       uint64 // store fences
	Crashes      uint64 // simulated power failures
}

// statLanes is the number of lanes the access counters are striped
// over: enough that two goroutines rarely hash to the same one.
const (
	laneBits  = 8
	statLanes = 1 << laneBits
)

// stackShift is log2 of the smallest goroutine stack (2 KiB): stacks are
// power-of-two sized and aligned to their size, so two live goroutines
// never have stack addresses that agree above this shift.
const stackShift = 11

// statLane is one lane of the device's counters, padded to a host cache
// line so two lanes never share one.
type statLane struct {
	loads, stores, cases, flushes, cleanFlushes, fences atomic.Uint64
	_                                                   [LineBytes - 6*WordSize]byte
}

// Device is a simulated NVRAM device.
type Device struct {
	words     []uint64 // cache view, len == size/8
	persisted []uint64 // durable image
	dirty     []uint32 // one flag per cache line, 1 == dirty

	size         uint64
	volatile     bool // DRAM: flushes and fences are no-ops (WithVolatile)
	flushLatency time.Duration
	evictEvery   int    // if > 0, approx. one random eviction per N stores
	yieldEvery   uint64 // if > 0, Gosched every N accesses (see WithYield)
	yieldCnt     atomic.Uint64

	evictMu  sync.Mutex
	evictRng *rand.Rand
	evictCnt atomic.Uint64

	crashed atomic.Bool
	crashes atomic.Uint64

	hook atomic.Pointer[Hook]

	// shadow is the psan persistency sanitizer's state: per-line persist
	// epochs plus per-goroutine dirty-read origins and derived stores.
	// Without the psan build tag it is an empty struct and every shadow
	// hook below compiles to nothing (see psan.go / psan_off.go).
	shadow shadowState

	// Every access counts itself, so the counters are the one thing all
	// goroutines write on every device op. Kept on a single line they
	// made that line the device's bottleneck (two clients completed
	// fewer ops than one), so they are striped over lanes and each
	// goroutine counts on the lane its stack address picks (see lane).
	// Stats sums the lanes: totals stay exact. The lanes are their own
	// allocation (see newLanes): a lane must start on a host cache line,
	// and a field of Device cannot promise that.
	stats *[statLanes]statLane
}

// newLanes returns zeroed lanes whose first byte is on a host cache-line
// boundary, so that each lane is exactly one line. The allocator only
// promises word alignment (a Device's fields sit 8 bytes into their slot,
// behind the allocation header, and a lane placed there straddled two
// lines and shared each with its neighbour), so one lane of slack is
// allocated and the start rounded up.
func newLanes() *[statLanes]statLane {
	buf := make([]statLane, statLanes+1)
	p := unsafe.Pointer(&buf[0])
	if rem := uintptr(p) % LineBytes; rem != 0 {
		p = unsafe.Add(p, LineBytes-rem)
	}
	return (*[statLanes]statLane)(p)
}

// Hook observes every mutating device operation (stores, CASes, flushes)
// before it takes effect. Tests use it as a failpoint: panicking from the
// hook models a crash at that exact step, and sweeping the panic point
// across every step exhaustively exercises recovery. Op is one of
// "store", "cas", "flush".
type Hook func(op string, off Offset)

// SetHook installs (or, with nil, removes) the operation hook.
func (d *Device) SetHook(h Hook) {
	if h == nil {
		d.hook.Store(nil)
		return
	}
	d.hook.Store(&h)
}

func (d *Device) callHook(op string, off Offset) {
	if h := d.hook.Load(); h != nil {
		//lint:allow hotpath — fault-injection hook, nil outside tests; hook bodies are test code and may allocate (§6.3)
		(*h)(op, off)
	}
}

// Option configures a Device.
type Option func(*Device)

// WithFlushLatency makes every Flush spin for approximately d, modelling
// the write-back cost of an NVRAM line (e.g., ~100ns for 3D XPoint class
// devices). The default is zero: flushes are free and only counted, which
// keeps unit tests fast while benchmarks can opt in to a realistic cost.
func WithFlushLatency(d time.Duration) Option {
	return func(dev *Device) { dev.flushLatency = d }
}

// WithVolatile makes the device plain DRAM: Flush, FlushAll and Fence
// return at once, with no count, latency, hook or sanitizer bookkeeping.
func WithVolatile() Option {
	return func(dev *Device) { dev.volatile = true }
}

// WithEviction enables opportunistic persistence: roughly one random dirty
// line is written back per n stores, modelling cache-line replacement.
// n ≤ 0 leaves eviction off.
func WithEviction(n int) Option {
	return func(dev *Device) { dev.evictEvery = n }
}

// WithEvictionSeed seeds the eviction RNG (default seed 1). Sweeps that
// enable opportunistic eviction pass an explicit seed so a failing crash
// point can be reproduced from (seed, point) alone.
func WithEvictionSeed(seed int64) Option {
	return func(dev *Device) { dev.evictRng = rand.New(rand.NewSource(seed)) }
}

// WithYield makes the device yield the processor every n word accesses.
// On a host with fewer cores than simulated threads, goroutines would
// otherwise run each operation to completion unpreempted and contention
// effects (helping, aborts, CAS failures) would never manifest; yielding
// at word granularity interleaves logical threads the way truly parallel
// hardware does. Benchmarks enable this; unit tests generally don't need
// it.
func WithYield(n int) Option {
	return func(dev *Device) { dev.yieldEvery = uint64(n) }
}

// New creates a device with the given size in bytes. Size is rounded up to
// a whole number of cache lines. Both images start zeroed.
func New(size uint64, opts ...Option) *Device {
	if size == 0 {
		size = LineBytes
	}
	lines := (size + LineBytes - 1) / LineBytes
	size = lines * LineBytes
	d := &Device{
		words:     make([]uint64, size/WordSize),
		persisted: make([]uint64, size/WordSize),
		dirty:     make([]uint32, lines),
		size:      size,
		evictRng:  rand.New(rand.NewSource(1)),
		stats:     newLanes(),
	}
	for _, o := range opts {
		o(d)
	}
	d.shadowInit()
	return d
}

// Size returns the device capacity in bytes.
func (d *Device) Size() uint64 { return d.size }

// Volatile reports whether the device was built WithVolatile.
func (d *Device) Volatile() bool { return d.volatile }

// index converts a byte offset to a word index, panicking on misaligned or
// out-of-range accesses. Simulated hardware traps wild pointers; in this
// codebase such an access is always a bug in a caller, never a recoverable
// condition, so panic is the right failure mode.
func (d *Device) index(off Offset) uint64 {
	if off%WordSize != 0 {
		panic(fmt.Sprintf("nvram: misaligned access at offset %#x", off))
	}
	i := off / WordSize
	if i >= uint64(len(d.words)) {
		panic(fmt.Sprintf("nvram: access at offset %#x beyond device size %#x", off, d.size))
	}
	return i
}

// lane returns the calling goroutine's counter lane. Device methods take
// no handle to hang a lane on, so the lane comes from the one thing that
// tells goroutines apart for free: the address of a local variable lies
// on the caller's stack, and live stacks do not overlap. The 2 KiB block
// of stack the call runs in is hashed (Fibonacci hashing: stacks come
// from a few aligned spans, so their raw low bits repeat) to a lane. Two
// goroutines collide with probability 1/statLanes, and a goroutine moves
// lanes as its stack deepens or is copied; both cost at most a shared
// line, never a count.
//
// The accessed word's address would pick a lane too, but a word many
// goroutines read (a list head, a root, a directory) would then have them
// all count on one lane: the counter would turn a read-shared line into a
// write-shared one, which the modelled hardware does not do.
func (d *Device) lane() *statLane {
	var local byte
	block := uint64(uintptr(unsafe.Pointer(&local))) >> stackShift
	return &d.stats[block*0x9E3779B97F4A7C15>>(64-laneBits)]
}

// Load atomically reads the word at off from the cache view.
func (d *Device) Load(off Offset) uint64 {
	d.maybeYield()
	d.lane().loads.Add(1)
	i := d.index(off)
	v := atomic.LoadUint64(&d.words[i])
	//lint:allow hotpath — psan shadow bookkeeping; disarmed (mask==0 early return) outside diagnostics runs, so its allocations never tax production fast paths (§6.3)
	d.shadowLoad(i, v)
	return v
}

// LoadHint atomically reads the word at off without informing the psan
// shadow tracker. It exists for one contract only: words that hold
// re-derivable copies of values durably published elsewhere. Reading
// such a copy off an unflushed line and re-storing the value is
// crash-safe — the original publication's persist ordering is checked at
// its own site — but the sanitizer's line-epoch model cannot see the
// aliasing and would flag it. No program code holds such a copy since
// the hash directory moved to DRAM; tests read with it from inside a
// device hook. The pmwcaslint rawload analyzer
// polices call sites the same way it polices Load, so every use needs a
// reviewed suppression naming this contract.
func (d *Device) LoadHint(off Offset) uint64 {
	d.maybeYield()
	d.lane().loads.Add(1)
	return atomic.LoadUint64(&d.words[d.index(off)])
}

// maybeYield interleaves logical threads at word granularity (WithYield).
func (d *Device) maybeYield() {
	if d.yieldEvery > 0 && d.yieldCnt.Add(1)%d.yieldEvery == 0 {
		runtime.Gosched()
	}
}

// Store atomically writes val to the word at off and marks its line dirty.
// The new value is visible to all threads immediately but is not durable
// until the line is flushed.
func (d *Device) Store(off Offset, val uint64) {
	d.maybeYield()
	d.callHook("store", off)
	d.lane().stores.Add(1)
	i := d.index(off)
	atomic.StoreUint64(&d.words[i], val)
	atomic.StoreUint32(&d.dirty[i/LineWords], 1)
	//lint:allow hotpath — psan shadow bookkeeping; disarmed (mask==0 early return) outside diagnostics runs, so its allocations never tax production fast paths (§6.3)
	d.shadowStore(i, val)
	d.maybeEvict()
}

// CAS atomically compares the word at off with old and, if equal, replaces
// it with new, marking the line dirty. It reports whether the swap
// happened.
func (d *Device) CAS(off Offset, old, new uint64) bool {
	d.maybeYield()
	d.callHook("cas", off)
	d.lane().cases.Add(1)
	i := d.index(off)
	ok := atomic.CompareAndSwapUint64(&d.words[i], old, new)
	if ok {
		atomic.StoreUint32(&d.dirty[i/LineWords], 1)
		//lint:allow hotpath — psan shadow bookkeeping; disarmed (mask==0 early return) outside diagnostics runs, so its allocations never tax production fast paths (§6.3)
		d.shadowStore(i, new)
		d.maybeEvict()
	}
	return ok
}

// Flush writes the cache line containing off back to the persisted image
// and clears its dirty mark, modelling CLWB. Flushing a clean line is a
// no-op apart from the latency and counters: it is counted in Flushes and
// in CleanFlushes, the write-backs that wrote nothing back.
//
// The dirty mark is cleared before the line is copied: any store that
// lands after the clear re-marks the line, so a concurrently updated word
// is either captured by this flush or remains dirty for a later one. The
// line is never left clean with unpersisted contents.
//
// On a volatile device Flush returns at once.
func (d *Device) Flush(off Offset) {
	if d.volatile {
		return
	}
	d.callHook("flush", off)
	l := d.lane()
	l.flushes.Add(1)
	if d.flushLatency > 0 {
		spin(d.flushLatency)
	}
	if !d.flushLine(d.index(off) / LineWords) {
		l.cleanFlushes.Add(1)
	}
}

// flushLine writes one line back and reports whether it was dirty.
func (d *Device) flushLine(line uint64) bool {
	wasDirty := atomic.SwapUint32(&d.dirty[line], 0) == 1
	base := line * LineWords
	for i := base; i < base+LineWords; i++ {
		atomic.StoreUint64(&d.persisted[i], atomic.LoadUint64(&d.words[i]))
	}
	//lint:allow hotpath — psan shadow bookkeeping; disarmed (mask==0 early return) outside diagnostics runs, so its allocations never tax production fast paths (§6.3)
	d.shadowFlushLine(line)
	return wasDirty
}

// Fence orders preceding flushes before subsequent stores (SFENCE). In the
// simulator a flush is synchronous, so Fence only counts; it exists so
// calling code documents its ordering points the same way a real
// implementation would. On a volatile device Fence returns at once.
func (d *Device) Fence() {
	if d.volatile {
		return
	}
	d.lane().fences.Add(1)
	//lint:allow hotpath — psan shadow bookkeeping; disarmed (mask==0 early return) outside diagnostics runs, so its allocations never tax production fast paths (§6.3)
	d.shadowFence()
}

// maybeEvict opportunistically persists one random line, if eviction is
// enabled, at the configured store rate.
func (d *Device) maybeEvict() {
	if d.evictEvery <= 0 {
		return
	}
	if d.evictCnt.Add(1)%uint64(d.evictEvery) != 0 {
		return
	}
	//lint:allow nonblock — guards one RNG draw for the eviction simulator; bounded, no I/O (§6.3)
	d.evictMu.Lock()
	line := uint64(d.evictRng.Intn(len(d.dirty)))
	d.evictMu.Unlock()
	if atomic.LoadUint32(&d.dirty[line]) == 1 {
		d.flushLine(line)
	}
}

// Crash simulates a power failure: the cache view is discarded and every
// word reverts to its persisted contents. The caller must guarantee
// quiescence. After Crash the device is immediately usable again (the
// "restart"); Crashed reports that at least one crash has occurred.
func (d *Device) Crash() {
	d.crashes.Add(1)
	d.crashed.Store(true)
	for i := range d.words {
		atomic.StoreUint64(&d.words[i], atomic.LoadUint64(&d.persisted[i]))
	}
	for i := range d.dirty {
		atomic.StoreUint32(&d.dirty[i], 0)
	}
	d.shadowCrash()
}

// Crashed reports whether the device has ever experienced a Crash.
func (d *Device) Crashed() bool { return d.crashed.Load() }

// CloneCrashed returns a new device holding exactly what a power failure
// at this instant would leave behind: both of the clone's images are this
// device's persisted image, and every line is clean. The clone carries no
// options, hook, or stats — it is a plain post-crash device, ready for
// recovery.
//
// Crash-sweep harnesses use this to test a crash at operation k without
// rerunning the first k-1 operations: from inside the operation hook,
// clone the device and recover the clone, while the original continues
// unperturbed. The original may be mid-operation; its persisted image is
// only ever mutated word-atomically, so the clone is a state some real
// crash could have produced.
func (d *Device) CloneCrashed() *Device {
	c := &Device{
		words:     make([]uint64, len(d.words)),
		persisted: make([]uint64, len(d.persisted)),
		dirty:     make([]uint32, len(d.dirty)),
		size:      d.size,
		evictRng:  rand.New(rand.NewSource(1)),
		stats:     newLanes(),
	}
	for i := range d.persisted {
		v := atomic.LoadUint64(&d.persisted[i])
		c.words[i] = v
		c.persisted[i] = v
	}
	c.crashed.Store(true)
	c.shadowInit()
	d.shadowClone(c)
	return c
}

// DirtyLines returns the number of cache lines whose latest contents have
// not been persisted. Useful in tests asserting that an algorithm flushed
// everything it promised to.
func (d *Device) DirtyLines() int {
	n := 0
	for i := range d.dirty {
		if atomic.LoadUint32(&d.dirty[i]) == 1 {
			n++
		}
	}
	return n
}

// PersistedLoad reads the word at off from the persisted image. Intended
// for tests and recovery assertions.
func (d *Device) PersistedLoad(off Offset) uint64 {
	return atomic.LoadUint64(&d.persisted[d.index(off)])
}

// FlushAll persists every dirty line. Used by snapshotting and by tests
// that need a clean baseline; real code paths flush selectively. On a
// volatile device FlushAll returns at once.
func (d *Device) FlushAll() {
	if d.volatile {
		return
	}
	for line := range d.dirty {
		if atomic.LoadUint32(&d.dirty[line]) == 1 {
			d.flushLine(uint64(line))
		}
	}
}

// Stats returns a snapshot of the device's operation counters. Every
// access is counted exactly once, so at quiescence the totals are exact;
// under concurrent accesses the lanes are read one by one and each total
// is a value the counter held at some point during the call.
func (d *Device) Stats() Stats {
	s := Stats{Crashes: d.crashes.Load()}
	for i := range d.stats {
		c := &d.stats[i]
		s.Loads += c.loads.Load()
		s.Stores += c.stores.Load()
		s.CASes += c.cases.Load()
		s.Flushes += c.flushes.Load()
		s.CleanFlushes += c.cleanFlushes.Load()
		s.Fences += c.fences.Load()
	}
	return s
}

// ResetStats zeroes the operation counters.
func (d *Device) ResetStats() {
	for i := range d.stats {
		c := &d.stats[i]
		c.loads.Store(0)
		c.stores.Store(0)
		c.cases.Store(0)
		c.flushes.Store(0)
		c.cleanFlushes.Store(0)
		c.fences.Store(0)
	}
	d.crashes.Store(0)
}

// spin busy-waits for roughly the given duration. A sleep would be far too
// coarse (the scheduler quantum dwarfs NVRAM latencies) and would also
// deschedule the goroutine, which a CLWB does not do.
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// snapshotMagic identifies the snapshot file format.
const snapshotMagic = 0x504d574341530001 // "PMWCAS" + version 1

// ErrBadSnapshot is returned when a snapshot file is malformed or does not
// match the device geometry.
var ErrBadSnapshot = errors.New("nvram: bad snapshot")

// WriteSnapshot writes the persisted image to w. Only durable state is
// saved — exactly what a power cycle would preserve — so restoring a
// snapshot is equivalent to a crash at the moment the snapshot was taken.
func (d *Device) WriteSnapshot(w io.Writer) error {
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint64(hdr[0:8], snapshotMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], d.size)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("nvram: writing snapshot header: %w", err)
	}
	buf := make([]byte, LineBytes)
	for base := 0; base < len(d.persisted); base += LineWords {
		for i := 0; i < LineWords; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], atomic.LoadUint64(&d.persisted[base+i]))
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("nvram: writing snapshot body: %w", err)
		}
	}
	return nil
}

// ReadSnapshot replaces both images with the snapshot read from r. The
// device geometry must match the snapshot. Requires quiescence.
func (d *Device) ReadSnapshot(r io.Reader) error {
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("nvram: reading snapshot header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[0:8]) != snapshotMagic {
		return fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if sz := binary.LittleEndian.Uint64(hdr[8:16]); sz != d.size {
		return fmt.Errorf("%w: snapshot size %d != device size %d", ErrBadSnapshot, sz, d.size)
	}
	buf := make([]byte, LineBytes)
	for base := 0; base < len(d.persisted); base += LineWords {
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("nvram: reading snapshot body: %w", err)
		}
		for i := 0; i < LineWords; i++ {
			v := binary.LittleEndian.Uint64(buf[i*8:])
			atomic.StoreUint64(&d.persisted[base+i], v)
			atomic.StoreUint64(&d.words[base+i], v)
		}
	}
	for i := range d.dirty {
		atomic.StoreUint32(&d.dirty[i], 0)
	}
	return nil
}

// SaveFile writes the persisted image to path, creating or truncating it.
func (d *Device) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nvram: creating snapshot file: %w", err)
	}
	defer f.Close()
	if err := d.WriteSnapshot(f); err != nil {
		return err
	}
	return f.Sync()
}

// LoadFile builds a device, configured by opts, from a snapshot file
// written by SaveFile. The device is as large as the file's image, and
// the snapshot's header must record that size.
func LoadFile(path string, opts ...Option) (*Device, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nvram: opening snapshot file: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("nvram: opening snapshot file: %w", err)
	}
	d := New(uint64(max(fi.Size()-16, 0)), opts...)
	if err := d.ReadSnapshot(f); err != nil {
		return nil, err
	}
	return d, nil
}
