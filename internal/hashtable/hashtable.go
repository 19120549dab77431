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
// A fixed directory region of 2^maxDepth words holds bucket pointers; a
// durable depth word says how many of them — 2^G — are live. Buckets are
// fixed-slot arena blocks:
//
//	word 0          meta: local depth | seal bit | version counter
//	word 1, 2       child pointers (set once, by the split that seals)
//	word 3          parent pointer (set at creation, immutable)
//	words 4..       slot pairs: key word, value word
//
// A key routes by the low bits of a 64-bit mix of the key: directory
// entry hash & (2^G - 1), then — if that bucket is sealed — down child
// pointers selected by successive hash bits until an unsealed bucket.
// Sealed buckets form a binary radix tree over hash suffixes; the
// directory is only an accelerator into that tree, which is the property
// every crash argument below leans on.
//
// # Updates are 2-3 word PMwCAS ops
//
// Every mutation of a bucket includes its meta word with a version bump,
// so one descriptor both publishes the change and validates the scan
// that decided it (any concurrent mutation, including a split sealing
// the bucket, changes meta and fails the CAS):
//
//	insert:  { meta: v → v+1, slot key: 0 → k, slot value: 0 → v }
//	update:  { meta: v → v+1, slot value: old → new }
//	delete:  { meta: v → v+1, slot key: k → 0, slot value: old → 0 }
//
// Reads are seqlock-style: read meta, scan the slots, re-read meta;
// equal versions bracket an atomic snapshot because every writer bumps
// the version.
//
// # Splits and doubling are single PMwCAS installs
//
// A full bucket B at depth L splits with one three-word PMwCAS:
//
//	{ B.child0: 0 → B0, B.child1: 0 → B1, B.meta: v → v | sealed }
//
// B0/B1 are fresh depth-L+1 buckets holding B's slots redistributed by
// hash bit L, reserved on the descriptor with FreeNewOnFailure — a crash
// or a lost race reclaims them through §5.2 recovery, an observed seal
// implies both children are durably installed. The version in the seal
// validates the migration snapshot. Directory entries still naming B are
// then repaired lazily: any walker that passed through a sealed bucket
// CASes the entry forward (single-word PCAS; the entry is a hint, every
// historical value of it still reaches the live bucket through the
// tree). Sealed buckets are never freed — they are interior nodes of the
// radix tree, at most one per live bucket — which is what makes the
// repair CASes unordered and crash-ignorable. Sealed buckets whose
// routing work is fully delegated to their children are later freed by
// the reclamation protocol in reclaim.go: durably scrub the bucket's
// directory class past it, then one PMwCAS that unlinks it from the
// tree and frees it crash-atomically — so the radix tree's interior
// does not grow without bound (one leaked bucket per split otherwise).
//
// Doubling G → G+1 first copies dir[i] into dir[i + 2^G] for the whole
// live half (plain stores: the upper half is dead until the flip, and
// any historical value of dir[i] is a valid hint for index i + 2^G),
// flushes it, fences, then flips the depth word with one persistent CAS.
// A crash before the flip leaves the upper half dead; after the flip the
// fence has already made it durable.
package hashtable

import (
	"errors"
	"fmt"
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
	bucketMetaOff   = 0
	bucketChild0Off = 8
	bucketChild1Off = 16
	bucketParentOff = 24
	bucketSlotsOff  = 32
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

// Meta word packing: version in the low 48 bits, local depth above it,
// the seal bit on top. All within the clean 61-bit payload a PMwCAS
// word offers.
const (
	versionMask = (1 << 48) - 1
	depthShift  = 48
	depthMask   = 0xff << depthShift
	sealedMask  = 1 << 59

	// maxBucketDepth bounds the radix tree: beyond it there are no hash
	// bits left to split on. Unreachable in practice — it would take 2^60
	// colliding hashes — but it turns the theoretical failure into an
	// error instead of a livelock.
	maxBucketDepth = 60
)

func metaDepth(meta uint64) int   { return int(meta&depthMask) >> depthShift }
func metaSealed(meta uint64) bool { return meta&sealedMask != 0 }
func bumpVersion(meta uint64) uint64 {
	return meta&^versionMask | (meta+1)&versionMask
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
// depth word (doubling as the exists-flag), one unused word, and the
// slot-geometry word. The unused word keeps the geometry word where
// existing images have it.
const RootWords = 3

// MinDescriptorWords is the descriptor capacity the table requires; the
// widest ops are a split (two child installs + seal) and a sealed-bucket
// reclaim (directory entry + two child parent words), both three words.
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
// domain as the Bw-tree, wide enough for every keycodec output. The
// sealed bit is a meta-word flag, never a slot-key bit, so slot keys are
// constrained only by the clean PMwCAS payload (bits 61..63 reserved).
const MaxKey uint64 = 1<<60 - 1

// Entry is one key/value pair yielded by Check.
type Entry = index.Entry

// Table is a persistent lock-free extendible hash table. Mint a Handle
// per goroutine for operations.
type Table struct {
	dev   *nvram.Device
	pool  *core.Pool
	alloc *alloc.Allocator

	depthWord nvram.Offset // 0 = table absent; else live depth G + 1
	geomWord  nvram.Offset // durable SlotsPerBucket
	dirBase   nvram.Offset
	maxDepth  int // log2(directory slots)
	slots     int // slot pairs per bucket

	// growClaim serializes the two structure-growth/shrink paths that
	// cannot overlap: directory doubling (plain-store copy of the live
	// half) and sealed-bucket reclamation (which needs the scrubbed
	// directory class to stay scrubbed until its PMwCAS commits). Both
	// are accelerators — losing the claim just skips the attempt.
	growClaim atomic.Bool

	splits    atomic.Uint64
	doublings atomic.Uint64
	reclaims  atomic.Uint64
}

// TableStats counts structural events since the table was opened
// (volatile; recovery resets them).
type TableStats struct {
	Splits    uint64 // bucket splits committed
	Doublings uint64 // directory doublings committed
	Reclaims  uint64 // sealed buckets reclaimed and freed
}

// Stats snapshots the table's structural counters.
func (t *Table) Stats() TableStats {
	return TableStats{
		Splits:    t.splits.Load(),
		Doublings: t.doublings.Load(),
		Reclaims:  t.reclaims.Load(),
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
	// Dir is the directory region: a power-of-two word count at a
	// layout-stable location. Its size caps the directory, not the table
	// — buckets deeper than log2(len) are reached through the tree.
	Dir nvram.Region
	// SlotsPerBucket is the fixed bucket capacity (default
	// DefaultSlotsPerBucket). An existing table's durable geometry must
	// match.
	SlotsPerBucket int
}

// New opens the table anchored at cfg.Roots, creating the first bucket
// on first use with one PMwCAS (core.Pool.OpenAnchors). After a crash,
// allocator and pool recovery must run before New; the table itself has
// no recovery code.
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
	dirSlots := cfg.Dir.Len / nvram.WordSize
	if dirSlots == 0 || dirSlots&(dirSlots-1) != 0 {
		return nil, fmt.Errorf("hashtable: directory must be a power-of-two word count, got %d", dirSlots)
	}
	if cfg.SlotsPerBucket == 0 {
		cfg.SlotsPerBucket = DefaultSlotsPerBucket
	}
	if cfg.SlotsPerBucket < 1 || cfg.SlotsPerBucket > 255 {
		return nil, fmt.Errorf("hashtable: SlotsPerBucket %d outside [1,255]", cfg.SlotsPerBucket)
	}
	t := &Table{
		dev:       cfg.Pool.Device(),
		pool:      cfg.Pool,
		alloc:     cfg.Allocator,
		depthWord: cfg.Roots.Base,
		geomWord:  cfg.Roots.Base + 2*nvram.WordSize,
		dirBase:   cfg.Dir.Base,
		slots:     cfg.SlotsPerBucket,
	}
	for d := dirSlots; d > 1; d >>= 1 {
		t.maxDepth++
	}
	a, err := cfg.Pool.OpenAnchors([]nvram.Offset{t.depthWord, t.geomWord, t.dirBase}, t.create)
	if err != nil {
		return nil, fmt.Errorf("hashtable: %w", err)
	}
	// Adopt the durable geometry; a mismatched request would silently
	// misread every bucket.
	if a[1] != uint64(t.slots) {
		return nil, fmt.Errorf("hashtable: table exists with %d slots per bucket, config asks %d", a[1], t.slots)
	}
	return t, nil
}

// create builds the first, depth-0 bucket and publishes the table with
// one PMwCAS, {depth: 0→1, dir[0]: 0→B, geometry: 0→slots}. The bucket is
// handed to dir[0]'s entry, so the descriptor owns it until the PMwCAS
// commits: a lost race or a crash frees it (§5.2), and the table stays
// absent.
func (t *Table) create(h *core.Handle) error {
	d, err := h.AllocateDescriptor(0)
	if err != nil {
		return err
	}
	// Reserve zeroes the bucket: depth 0, version 0, every slot empty.
	b, err := t.alloc.NewHandle().Reserve(bucketBytes(t.slots))
	if err == nil {
		err = d.ReserveEntry(t.dirBase, 0, b, core.PolicyFreeNewOnFailure)
	}
	if err == nil {
		err = d.AddWord(t.depthWord, 0, 1) // depth 0, published
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

// flushRange persists [base, base+n) line by line.
func (t *Table) flushRange(base nvram.Offset, n uint64) {
	first := base &^ (nvram.LineBytes - 1)
	for off := first; off < base+nvram.Offset(n); off += nvram.LineBytes {
		t.dev.Flush(off)
	}
	t.dev.Fence()
}

// wordReadHint reads an anchor or directory word as a navigation hint.
// In a regular build it is core.PCASRead: the flush-before-read, charged
// to the op like any protocol read (on a volatile device, one load).
// Under the psan sanitizer build (-tags psan) it degrades to a masked
// raw load: the sanitizer's commit check makes the flushing read
// redundant for navigation (a hint that is never stored cannot commit
// unpersisted state), and keeping it would charge every point op with
// hint-directory flushes the traversal flush elision deliberately
// excludes — double-counted against the same Stats.Flushes the
// sanitizer run is validating.
// Only DirtyFlag is masked: a dirty hint is the true word, merely not
// yet persisted, and every path out of locate re-validates through a
// flushing read or a descriptor install before publishing anything.
// MwCASFlag/RDCSSFlag must NOT be masked — directory words are targets
// of the sealed-bucket reclaim PMwCAS, and masking a descriptor pointer
// would forge a bucket offset. Flagged values pass through verbatim in
// every mode so Handle.dirRead can detect them and fall back to the full
// protocol read.
func (t *Table) wordReadHint(addr nvram.Offset) uint64 {
	if nvram.SanitizerEnabled {
		//lint:allow rawload — psan hint read: directory and anchor words are re-derivable copies of durably published words (LoadHint contract); the dirty-masked value is a hint every caller re-validates (§4.2)
		return t.dev.LoadHint(addr) &^ core.DirtyFlag
	}
	return core.PCASRead(t.dev, addr)
}

// SlotsPerBucket reports the table's bucket capacity.
func (t *Table) SlotsPerBucket() int { return t.slots }

// MaxDirDepth reports the deepest global depth the directory region
// supports.
func (t *Table) MaxDirDepth() int { return t.maxDepth }

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
