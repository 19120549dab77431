// Package hashtable is a persistent lock-free extendible hash table built
// on PMwCAS — the store's point-lookup index, complementing the two
// ordered indexes (skip list §6.1, Bw-tree §6.2) exactly the way the
// paper's generality claim (§6) suggests: take the textbook DRAM
// structure, replace every multi-step update protocol with one durable
// multi-word CAS, and recovery comes for free from the descriptor
// machinery.
//
// # Structure
//
// The durable anchors are two words: the first bucket and the slot
// geometry. Buckets are fixed-slot arena blocks:
//
//	word 0          meta: version | local depth L | creation depth c
//	word 1          sib: the newest sibling this bucket split off
//	word 2          prev: the next-older sibling of the bucket this one
//	                was split from (set at creation, immutable)
//	word 3          zero (keeps slot pairs line-aligned)
//	words 4..       slot pairs: key word, value word
//
// A key routes by the low bits of a 64-bit mix of the key. A bucket
// created at depth c owns the hash class its creation fixed in bits
// [0, c); at depth L it keeps the part of that class whose bits [c, L)
// are zero. Each split of a bucket at depth l hands the half with bit l
// set to a new sibling created at depth l+1, so a key whose hash has a
// 1 in bits [c, L) belongs to the sibling named by the lowest such bit,
// found on the sib → prev chain. Every key is therefore reachable from
// the first bucket, and buckets are never freed: the durable buckets
// are the whole truth, and anything that names a bucket is only a
// shortcut into that tree.
//
// # The directory is a DRAM hint
//
// The directory is a volatile array of 2^G bucket offsets. Entry
// hash & (2^G - 1) names a bucket created at depth <= G whose creation
// class covers the entry's class; routing continues from it. Any value
// an entry ever held stays a valid hint, because the bucket it names is
// never freed and its class never shrinks below the entry's. So the
// directory needs no persistence at all: a walk path-compresses its
// entry with one DRAM CAS, a split swings its class's entries to the
// new sibling with DRAM CASes, and a crash simply forgets it. After New
// (and so after recovery) the directory holds only the first bucket,
// G = 0, and warms up on demand: a walk that reaches a bucket deeper
// than G doubles the directory, and walks path-compress the entries
// they route through.
//
// Doubling G → G+1 copies each entry i into i + 2^G (an old entry is a
// valid hint for both halves of its class) and publishes the grown
// array with one atomic pointer store. A doubling is the only step that
// allocates, and the directory never holds more entries than twice the
// buckets the allocator could ever hold, so a pathological collision
// chain cannot grow it without bound.
//
// # Updates are 2-3 word PMwCAS ops
//
// Every mutation of a bucket includes its meta word with a version bump,
// so one descriptor both publishes the change and validates the scan
// that decided it (any concurrent mutation, including a split deepening
// the bucket, changes meta and fails the CAS):
//
//	insert:  { meta: v → v+1, slot key: 0|ghost → k, slot value: 0|ghostV → v }
//	update:  { meta: v → v+1, slot value: old → new }
//	delete:  { meta: v → v+1, slot key: k → 0, slot value: old → 0 }
//
// Reads are seqlock-style: read meta, scan the slots, re-read meta;
// equal versions bracket an atomic snapshot because every writer bumps
// the version.
//
// # Splits keep their bucket
//
// A full bucket B at depth L splits in place with one two-word PMwCAS:
//
//	{ B.sib: old → S, B.meta: v → depth L+1, version v+1 }
//
// S is a fresh bucket created at depth L+1 holding B's live keys whose
// hash bit L is 1, with S.prev = old; it is reserved on the descriptor
// with FreeNewOnFailure, so a crash or a lost race frees it through
// §5.2 recovery. The version in the meta compare validates the
// migration snapshot. The moved keys stay in B as ghosts: keys outside
// B's current class, which no lookup of theirs routes to B, and whose
// slots an insert treats as free.
package hashtable

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/epoch"
	"pmwcas/internal/index"
	"pmwcas/internal/metrics"
	"pmwcas/internal/nvram"
)

// Bucket word layout (byte offsets within a bucket block).
const (
	bucketMetaOff  = 0
	bucketSibOff   = 8
	bucketPrevOff  = 16
	bucketSpareOff = 24 // always zero
	bucketSlotsOff = 32
)

// slotKeyOff / slotValOff locate slot i's key and value words.
func slotKeyOff(b nvram.Offset, i int) nvram.Offset {
	return b + bucketSlotsOff + nvram.Offset(i)*2*nvram.WordSize
}

func slotValOff(b nvram.Offset, i int) nvram.Offset {
	return slotKeyOff(b, i) + nvram.WordSize
}

func bucketBytes(slots int) uint64 {
	return bucketSlotsOff + uint64(slots)*2*nvram.WordSize
}

// Meta word packing: version in bits 0-39, local depth in bits 40-47,
// creation depth in bits 48-55. All within the clean 61-bit payload a
// PMwCAS word offers.
const (
	versionMask  = (1 << 40) - 1
	depthShift   = 40
	createdShift = 48

	// maxBucketDepth bounds splitting: beyond it there are no hash bits
	// left to split on. Unreachable in practice — it would take 2^60
	// colliding hashes — but it turns the theoretical failure into an
	// error instead of a livelock.
	maxBucketDepth = 60
)

func metaDepth(meta uint64) int   { return int(meta>>depthShift) & 0xff }
func metaCreated(meta uint64) int { return int(meta>>createdShift) & 0xff }
func bumpVersion(meta uint64) uint64 {
	return meta&^versionMask | (meta+1)&versionMask
}

// strayBits returns bits [c, L) of hash for a bucket whose meta is meta
// (creation depth c, depth L). For a hash in the bucket's creation class
// they are zero iff the bucket itself holds the hash's keys; otherwise
// the lowest set bit names the split that moved them to a sibling. A
// slot key with stray bits is a ghost.
func strayBits(hash, meta uint64) uint64 {
	c, l := uint(metaCreated(meta)), uint(metaDepth(meta))
	return (hash >> c) & (1<<(l-c) - 1)
}

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit hash, so
// directory routing (low bits) and split routing (successive bits) are
// uniform even for dense integer keys. It is a pure function of the key
// — the property recovery depends on to find every key again.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// RootWords is the number of durable anchor words the table needs: the
// first bucket (doubling as the exists-flag) and the slot geometry.
const RootWords = 2

// MinDescriptorWords is the descriptor capacity the table requires; the
// widest op is an insert (meta, slot key, slot value).
const MinDescriptorWords = 3

// DefaultSlotsPerBucket makes a bucket exactly four cache lines
// (4 header words + 14 slot pairs = 32 words).
const DefaultSlotsPerBucket = 14

var (
	// ErrKeyExists and ErrNotFound are the shared index sentinels.
	ErrKeyExists = index.ErrKeyExists
	ErrNotFound  = index.ErrNotFound
	// ErrKeyRange rejects keys outside (0, 2^60-1).
	ErrKeyRange = errors.New("hashtable: key out of range")
	// ErrValueRange rejects values with reserved high bits.
	ErrValueRange = errors.New("hashtable: value out of range")
	// ErrUnordered is returned by Scan: the hash table has no key order to
	// scan in. Use Range for unordered iteration.
	ErrUnordered = index.ErrUnordered
)

// MaxKey bounds user keys: valid keys are 1 .. MaxKey-1 — the same
// domain as the Bw-tree, wide enough for every keycodec output. Slot
// keys are constrained only by the clean PMwCAS payload (bits 61..63
// reserved).
const MaxKey uint64 = 1<<60 - 1

// Entry is one key/value pair yielded by Check.
type Entry = index.Entry

// Table is a persistent lock-free extendible hash table. Mint a Handle
// per goroutine for operations.
type Table struct {
	dev   *nvram.Device
	pool  *core.Pool
	alloc *alloc.Allocator

	rootWord nvram.Offset // the first bucket; 0 = table absent
	geomWord nvram.Offset // durable SlotsPerBucket
	root     nvram.Offset // the first bucket, as opened
	slots    int          // slot pairs per bucket

	// dir points at the live directory: 2^G bucket hints, G =
	// log2(len). dirs[G] holds the directory published at depth G, so
	// the pointer stays valid for as long as a reader holds it; a
	// doubling fills dirs[G+1] before it publishes it. maxDir caps G.
	dir    atomic.Pointer[[]atomic.Uint64]
	dirs   [maxBucketDepth + 1][]atomic.Uint64
	maxDir int

	// growClaim serializes directory doublings. Doubling is an
	// accelerator, so losing the claim just skips the attempt.
	growClaim atomic.Bool

	splits    atomic.Uint64
	doublings atomic.Uint64
}

// TableStats counts structural events since the table was opened
// (volatile; recovery resets them).
type TableStats struct {
	Splits    uint64 // bucket splits committed
	Doublings uint64 // directory doublings committed
	// Reclaims is always 0: splits free no bucket. It stays only because
	// the benchmark reads it.
	Reclaims uint64
}

// Stats snapshots the table's structural counters.
func (t *Table) Stats() TableStats {
	return TableStats{
		Splits:    t.splits.Load(),
		Doublings: t.doublings.Load(),
	}
}

// Mix64 is the table's key hash (splitmix64 finalizer), exported so the
// store can shard on the high bits of the same full-avalanche mix whose
// low bits route the directory — uncorrelated by construction.
func Mix64(key uint64) uint64 { return mix64(key) }

// Config wires a Table to its substrates.
type Config struct {
	Pool      *core.Pool
	Allocator *alloc.Allocator
	// Roots is a durable region of at least RootWords words at a
	// layout-stable location (one cache line).
	Roots nvram.Region
	// SlotsPerBucket is the fixed bucket capacity (default
	// DefaultSlotsPerBucket). An existing table's durable geometry must
	// match.
	SlotsPerBucket int
}

// New opens the table anchored at cfg.Roots, creating the first bucket
// on first use with one PMwCAS (core.Pool.OpenAnchors). After a crash,
// allocator and pool recovery must run before New; the table itself has
// no recovery code. The directory starts cold, at the first bucket.
func New(cfg Config) (*Table, error) {
	if cfg.Pool == nil || cfg.Allocator == nil {
		return nil, errors.New("hashtable: Pool and Allocator are required")
	}
	if cfg.Pool.WordsPerDescriptor() < MinDescriptorWords {
		return nil, fmt.Errorf("hashtable: pool descriptors hold %d words, need >= %d",
			cfg.Pool.WordsPerDescriptor(), MinDescriptorWords)
	}
	if cfg.Roots.Len < RootWords*nvram.WordSize {
		return nil, fmt.Errorf("hashtable: roots region too small (%d bytes)", cfg.Roots.Len)
	}
	if cfg.SlotsPerBucket == 0 {
		cfg.SlotsPerBucket = DefaultSlotsPerBucket
	}
	if cfg.SlotsPerBucket < 1 || cfg.SlotsPerBucket > 255 {
		return nil, fmt.Errorf("hashtable: SlotsPerBucket %d outside [1,255]", cfg.SlotsPerBucket)
	}
	t := &Table{
		dev:      cfg.Pool.Device(),
		pool:     cfg.Pool,
		alloc:    cfg.Allocator,
		rootWord: cfg.Roots.Base,
		geomWord: cfg.Roots.Base + nvram.WordSize,
		slots:    cfg.SlotsPerBucket,
	}
	a, err := cfg.Pool.OpenAnchors([]nvram.Offset{t.rootWord, t.geomWord}, t.create)
	if err != nil {
		return nil, fmt.Errorf("hashtable: %w", err)
	}
	// Adopt the durable geometry; a mismatched request would silently
	// misread every bucket.
	if a[1] != uint64(t.slots) {
		return nil, fmt.Errorf("hashtable: table exists with %d slots per bucket, config asks %d", a[1], t.slots)
	}
	t.root = nvram.Offset(a[0])
	// Two entries per bucket the arena could ever hold is more than any
	// table routes through; the cap keeps a pathological collision chain
	// (bucket depth up to maxBucketDepth) from doubling past it.
	t.maxDir = min(bits.Len64(2*t.alloc.Blocks(bucketBytes(t.slots)))-1, maxBucketDepth)
	t.dirs[0] = make([]atomic.Uint64, 1)
	t.dirs[0][0].Store(uint64(t.root))
	t.dir.Store(&t.dirs[0])
	return t, nil
}

// create builds the first, depth-0 bucket and publishes the table with
// one PMwCAS, {root: 0→B, geometry: 0→slots}. The bucket is handed to the
// root word's entry, so the descriptor owns it until the PMwCAS commits:
// a lost race or a crash frees it (§5.2), and the table stays absent.
func (t *Table) create(h *core.Handle) error {
	d, err := h.AllocateDescriptor(0)
	if err != nil {
		return err
	}
	// The bucket is all zero: depth 0, version 0, every slot empty.
	b, err := t.alloc.NewHandle().Reserve(bucketBytes(t.slots))
	if err == nil {
		for off := b; off < b+bucketBytes(t.slots); off += nvram.WordSize {
			t.dev.Store(off, 0)
		}
		err = d.ReserveEntry(t.rootWord, 0, b, core.PolicyFreeNewOnFailure)
	}
	if err == nil {
		err = d.AddWord(t.geomWord, 0, uint64(t.slots))
	}
	if err != nil {
		d.Discard()
		return err
	}
	_, err = d.Execute()
	return err
}

// Handle is a per-goroutine table context.
type Handle struct {
	t    *Table
	core *core.Handle
	ah   *alloc.Handle
	lane metrics.Stripe

	// splitKeys/splitVals are split's slot-snapshot scratch, sized on
	// first use and reused: a handle is single-goroutine and split does
	// not recurse, so one buffer pair per handle suffices.
	splitKeys []uint64
	splitVals []uint64
}

// NewHandle creates a per-goroutine handle.
func (t *Table) NewHandle() *Handle {
	return &Handle{t: t, core: t.pool.NewHandle(), ah: t.alloc.NewHandle(), lane: metrics.NextStripe()}
}

// Guard exposes the handle's epoch guard (index.Owner): hold it across
// reading a value and dereferencing the block it names.
func (h *Handle) Guard() *epoch.Guard { return h.core.Guard() }

// checkKey and checkValue return bare sentinels: the %#x wrapping they
// once carried cost an Errorf allocation on every point op, and callers
// match with errors.Is, never the message.
func checkKey(key uint64) error {
	if key == 0 || key >= MaxKey {
		return ErrKeyRange
	}
	return nil
}

func checkValue(v uint64) error {
	if !core.IsClean(v) {
		return ErrValueRange
	}
	return nil
}
