package pmwcas

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pmwcas/internal/alloc"
	"pmwcas/internal/blobkv"
	"pmwcas/internal/bwtree"
	"pmwcas/internal/core"
	"pmwcas/internal/hashtable"
	"pmwcas/internal/nvram"
	"pmwcas/internal/pqueue"
	"pmwcas/internal/skiplist"
)

// Config sizes a Store. The zero value is a usable default: a 64 MiB
// persistent single-shard store with general-purpose size classes.
type Config struct {
	// Size is the simulated NVRAM capacity in bytes (default 64 MiB),
	// shared evenly by all shards. Layout is derived deterministically
	// from this Config, so reopening a device (or snapshot) requires the
	// same Config.
	Size uint64
	// Mode selects Persistent (default) or Volatile.
	Mode Mode
	// Shards partitions the store into independent engines (default 1),
	// each owning its own slice of the device: descriptor pool, allocator
	// arena, epoch manager, root line, and index regions. Shards never
	// share mutable state, so operations on different shards contend on
	// nothing — the shard-per-core layout. Keys are placed by
	// ShardForKey; all capacity knobs below are per shard.
	Shards int
	// Descriptors is each shard's PMwCAS pool capacity (default 1024).
	Descriptors int
	// WordsPerDescriptor is each descriptor's capacity (default: what the
	// skip list needs, 3+MaxHeight).
	WordsPerDescriptor int
	// MaxHandles bounds concurrent allocator handles per shard
	// (default 64).
	MaxHandles int
	// Classes overrides each shard's allocator size classes. The default
	// covers skip list nodes, Bw-tree deltas, and Bw-tree pages.
	Classes []SizeClass
	// BwTreeMappingSlots sizes each shard's Bw-tree mapping table
	// (default 1<<16 LPIDs). Only consumed when BwTree is opened.
	BwTreeMappingSlots uint64
	// HashDirSlots sizes each shard's hash table directory (default 1<<12
	// bucket pointers; must be a power of two). The directory caps
	// fan-out, not capacity — deeper buckets are reached through the
	// bucket tree. Only consumed when HashTable is opened.
	HashDirSlots uint64
	// FlushLatency, if set, charges each cache-line write-back this much
	// simulated time (models NVRAM write cost in benchmarks).
	FlushLatency time.Duration
	// EvictEvery, if > 0, persists roughly one random line per that many
	// stores (models opportunistic cache eviction).
	EvictEvery int
	// EvictSeed, if non-zero, seeds the eviction RNG so runs that enable
	// EvictEvery are reproducible (crash sweeps pin findings to a seed).
	EvictSeed int64
	// YieldEvery, if > 0, yields the processor every that many device
	// accesses so logical threads interleave even on few-core hosts
	// (benchmarking knob; see nvram.WithYield).
	YieldEvery int
	// RecoveryHook, if set, is called after each shard finishes recovery
	// (OpenDevice, OpenFile, Recover), in shard order. Crash sweeps use it
	// to capture and perturb the device between shard recoveries; it does
	// not participate in layout and need not match across reopenings.
	RecoveryHook func(shard int)
}

// fill applies defaults and validates that the fixed regions fit the
// per-shard budget. It reports configurations that cannot possibly be
// laid out with an error naming the oversized region, instead of letting
// a later layout carve panic (or an allocator with clamped classes
// limp along) obscure which knob was wrong.
func (c *Config) fill() error {
	if c.Size == 0 {
		c.Size = 64 << 20
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 0 {
		return fmt.Errorf("pmwcas: Shards must be positive, got %d", c.Shards)
	}
	if c.Descriptors == 0 {
		c.Descriptors = 1024
	}
	if c.WordsPerDescriptor == 0 {
		c.WordsPerDescriptor = skiplist.MinDescriptorWords
	}
	if c.MaxHandles == 0 {
		c.MaxHandles = 64
	}
	if c.BwTreeMappingSlots == 0 {
		c.BwTreeMappingSlots = 1 << 16
	}
	if c.HashDirSlots == 0 {
		c.HashDirSlots = 1 << 12
	}
	shardBudget := c.Size / uint64(c.Shards)
	poolBytes := core.PoolSize(c.Descriptors, c.WordsPerDescriptor)
	mapBytes := c.BwTreeMappingSlots * nvram.WordSize
	dirBytes := c.HashDirSlots * nvram.WordSize
	// The remaining fixed regions (roots, Bw-tree meta, blob staging, hash
	// anchor) plus bitmap and line-rounding slack.
	const slack = 64 << 10
	fixed := poolBytes + mapBytes + dirBytes + slack
	if fixed >= shardBudget {
		biggest, n := "descriptor pool", poolBytes
		if mapBytes > n {
			biggest, n = "Bw-tree mapping table", mapBytes
		}
		if dirBytes > n {
			biggest, n = "hash directory", dirBytes
		}
		return fmt.Errorf(
			"pmwcas: fixed regions need %d bytes but each shard has %d (Size %d / Shards %d); largest is the %s at %d bytes",
			fixed, shardBudget, c.Size, c.Shards, biggest, n)
	}
	if c.Classes == nil {
		// Derive classes from whatever is left after the fixed regions,
		// with ~10% slack for bitmaps and rounding: five classes sharing
		// the per-shard data budget evenly.
		per := (shardBudget - fixed) * 9 / 10 / 5
		c.Classes = []SizeClass{
			{BlockSize: 64, Count: max64(per/64, 64)},
			{BlockSize: 128, Count: max64(per/128, 32)},
			{BlockSize: 256, Count: max64(per/256, 16)},
			{BlockSize: 1024, Count: max64(per/1024, 16)},
			{BlockSize: 4096, Count: max64(per/4096, 8)},
		}
	}
	return nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// storeShard is one shard's private slice of the store: its own regions,
// descriptor pool (and thus epoch manager), and allocator arena. Shards
// share only the device; every mutable word belongs to exactly one.
type storeShard struct {
	pool  *core.Pool
	alloc *alloc.Allocator

	rootsRegion   nvram.Region // skip list anchors + application roots
	mapRegion     nvram.Region // Bw-tree mapping table
	metaRegion    nvram.Region // Bw-tree meta line
	blobRegion    nvram.Region // blob KV staging slots
	hashRegion    nvram.Region // hash table anchor line
	hashDirRegion nvram.Region // hash table directory
	poolRegion    nvram.Region
	allocRegion   nvram.Region

	// The hash table is a per-shard singleton; caching it keeps one set
	// of split/reclaim counters per shard for Stats.
	htMu    sync.Mutex
	ht      *hashtable.Table
	htSlots int
}

// Store assembles the full system: simulated NVRAM device and, per
// shard, a persistent allocator, PMwCAS descriptor pool, a root
// directory for anchoring application structures, and regions for the
// indexes. Shard region groups are carved back to back in shard order,
// so a single-shard layout is byte-identical to the pre-sharding one.
// The whole layout is a pure function of Config, which is what makes
// recovery possible: after a crash, opening the same device with the
// same Config finds every structure where it was.
type Store struct {
	cfg    Config
	dev    *nvram.Device
	shards []*storeShard
}

// Create builds a fresh store on a new simulated device.
func Create(cfg Config) (*Store, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	opts := []nvram.Option{}
	if cfg.FlushLatency > 0 {
		opts = append(opts, nvram.WithFlushLatency(cfg.FlushLatency))
	}
	if cfg.EvictEvery > 0 {
		opts = append(opts, nvram.WithEviction(cfg.EvictEvery))
	}
	if cfg.EvictSeed != 0 {
		opts = append(opts, nvram.WithEvictionSeed(cfg.EvictSeed))
	}
	if cfg.YieldEvery > 0 {
		opts = append(opts, nvram.WithYield(cfg.YieldEvery))
	}
	return assemble(nvram.New(cfg.Size, opts...), cfg, false)
}

// OpenDevice wraps an existing device (for example, one that just
// crashed, or was restored from a snapshot) and, in Persistent mode,
// runs allocator and PMwCAS recovery shard by shard.
func OpenDevice(dev *nvram.Device, cfg Config) (*Store, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if dev.Size() < cfg.Size {
		return nil, fmt.Errorf("pmwcas: device holds %d bytes, config requires %d", dev.Size(), cfg.Size)
	}
	return assemble(dev, cfg, cfg.Mode == Persistent)
}

// OpenFile restores a store from a snapshot file written by Checkpoint
// and runs recovery. The Config must match the one the snapshot was
// created with.
func OpenFile(path string, cfg Config) (*Store, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	opts := []nvram.Option{}
	if cfg.FlushLatency > 0 {
		opts = append(opts, nvram.WithFlushLatency(cfg.FlushLatency))
	}
	dev := nvram.New(cfg.Size, opts...)
	if err := dev.LoadFile(path); err != nil {
		return nil, err
	}
	return assemble(dev, cfg, true)
}

// carveShard reserves one shard's region group. The order within a group
// is fixed forever: hash table regions come last so their addition left
// every earlier region — and thus every pre-existing durable image —
// where it was.
func carveShard(l *nvram.Layout, cfg *Config) *storeShard {
	sh := &storeShard{}
	sh.poolRegion = l.Carve(core.PoolSize(cfg.Descriptors, cfg.WordsPerDescriptor))
	sh.allocRegion = l.Carve(alloc.MetaSize(cfg.Classes, cfg.MaxHandles))
	sh.rootsRegion = l.Carve(nvram.LineBytes * 4) // 32 root words
	sh.mapRegion = l.Carve(cfg.BwTreeMappingSlots * nvram.WordSize)
	sh.metaRegion = l.Carve(nvram.LineBytes)
	sh.blobRegion = l.Carve(blobkv.StagingWords(cfg.MaxHandles) * nvram.WordSize)
	sh.hashRegion = l.Carve(nvram.LineBytes)
	sh.hashDirRegion = l.Carve(cfg.HashDirSlots * nvram.WordSize)
	return sh
}

// buildShard constructs a shard's allocator and pool over its regions
// and, when recovering, replays that shard's deliveries and descriptors.
func buildShard(dev *nvram.Device, cfg *Config, sh *storeShard, recover bool) (RecoveryStats, error) {
	var rst RecoveryStats
	var err error
	sh.alloc, err = alloc.New(dev, sh.allocRegion, cfg.Classes, cfg.MaxHandles)
	if err != nil {
		return rst, fmt.Errorf("allocator: %w", err)
	}
	if recover {
		sh.alloc.Recover()
	}
	sh.pool, err = core.NewPool(core.Config{
		Device:             dev,
		Region:             sh.poolRegion,
		DescriptorCount:    cfg.Descriptors,
		WordsPerDescriptor: cfg.WordsPerDescriptor,
		Mode:               cfg.Mode,
		Allocator:          sh.alloc,
	})
	if err != nil {
		return rst, fmt.Errorf("pool: %w", err)
	}
	// Finalize callbacks must exist before recovery replays descriptors.
	bwtree.RegisterRecoveryCallbacks(sh.pool, sh.alloc)
	if recover {
		if rst, err = sh.pool.Recover(); err != nil {
			return rst, fmt.Errorf("recovery: %w", err)
		}
	}
	return rst, nil
}

func assemble(dev *nvram.Device, cfg Config, recover bool) (*Store, error) {
	s := &Store{cfg: cfg, dev: dev}
	l := nvram.NewLayout(dev)
	// Carve every shard's regions before recovering any: the layout is a
	// pure function of Config regardless of how far a recovery got.
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, carveShard(l, &cfg))
	}
	for i, sh := range s.shards {
		if _, err := buildShard(dev, &cfg, sh, recover); err != nil {
			return nil, fmt.Errorf("pmwcas: shard %d: %w", i, err)
		}
		if recover && cfg.RecoveryHook != nil {
			cfg.RecoveryHook(i)
		}
	}
	return s, nil
}

// Device exposes the simulated NVRAM device (stats, crash injection).
func (s *Store) Device() *Device { return s.dev }

// ShardCount returns the number of shards the store was configured with.
func (s *Store) ShardCount() int { return len(s.shards) }

// ShardForKey places an index key on a shard. Placement uses the high
// bits of the same mix the hash table drives its directory with from the
// low bits, so a shard's hash directory sees the full low-bit spread —
// sharding never biases any shard's bucket classes.
func (s *Store) ShardForKey(key uint64) int {
	if len(s.shards) == 1 {
		return 0
	}
	return int((hashtable.Mix64(key) >> 32) % uint64(len(s.shards)))
}

// Shard is one shard's view of the store: the same index and handle
// accessors as the Store itself, scoped to that shard's pool, allocator,
// and regions. Store-level accessors are shorthand for Shard(0).
type Shard struct {
	s *Store
	i int
}

// Shard returns shard i's view.
func (s *Store) Shard(i int) *Shard {
	if i < 0 || i >= len(s.shards) {
		panic(fmt.Sprintf("pmwcas: shard %d out of range [0,%d)", i, len(s.shards)))
	}
	return &Shard{s: s, i: i}
}

// Index returns which shard this view is scoped to.
func (sh *Shard) Index() int { return sh.i }

// Epochs exposes this shard's epoch manager.
func (sh *Shard) Epochs() *EpochManager { return sh.state().pool.Epochs() }

// PMwCASHandle returns a per-goroutine handle for issuing raw PMwCAS
// operations and reads against this shard.
func (sh *Shard) PMwCASHandle() *Handle { return sh.state().pool.NewHandle() }

func (sh *Shard) state() *storeShard { return sh.s.shards[sh.i] }

// Epochs exposes shard 0's epoch manager. With multiple shards each has
// its own; use Shard(i).Epochs() for the others.
func (s *Store) Epochs() *EpochManager { return s.shards[0].pool.Epochs() }

// PoolStats returns the PMwCAS pool activity counters summed across all
// shards (use Shard(i).PMwCASHandle's pool for a single shard's view).
func (s *Store) PoolStats() PoolStats {
	var st PoolStats
	for _, sh := range s.shards {
		p := sh.pool.Stats()
		st.Allocated += p.Allocated
		st.Succeeded += p.Succeeded
		st.Failed += p.Failed
		st.Discarded += p.Discarded
		st.Helps += p.Helps
		st.Reads += p.Reads
	}
	return st
}

// StoreStats is a cross-layer observability snapshot: PMwCAS descriptor
// activity, epoch-reclamation progress, allocator occupancy, and device
// flush counts in one read, summed across shards. It is what the
// server's STATS command reports; all counters are cumulative since
// store creation (hash structure counters: since the table was opened).
type StoreStats struct {
	// Shards is the number of independent engines the totals below sum.
	Shards int
	// Pool counts PMwCAS descriptor activity (allocations, helps,
	// successes/failures, reads that helped) across all shards.
	Pool PoolStats
	// Epoch counts epoch clock advances and deferred/freed garbage
	// across all shards. Guards is a gauge, also summed.
	Epoch EpochStats
	// Descriptor pool occupancy across all shards.
	DescriptorsFree int
	DescriptorsCap  int
	// Data-heap occupancy (allocated vs total capacity) across all shards.
	AllocBlocks, AllocBytes       uint64
	AllocCapBlocks, AllocCapBytes uint64
	// Hash table structure activity across all shards (zero until a
	// shard's HashTable is opened): splits seal one interior bucket each,
	// reclaims free one, so SealedBuckets = Splits - Reclaims is the net
	// interior growth this session. The durable count is in
	// DurableState.HashCheck.
	HashSplits, HashDoublings, HashReclaims uint64
	HashSealedBuckets                       uint64
	// Device holds the NVRAM operation counters (loads, stores, flushes,
	// fences, crashes) for the one shared device.
	Device DeviceStats
}

// Stats gathers a StoreStats snapshot across all shards. Counters are
// read individually without a global lock, so a snapshot taken under
// load is approximate — internally consistent enough for monitoring,
// not a linearizable cut.
func (s *Store) Stats() StoreStats {
	st := StoreStats{
		Shards: len(s.shards),
		Pool:   s.PoolStats(),
		Device: s.dev.Stats(),
	}
	for _, sh := range s.shards {
		e := sh.pool.Epochs().Stats()
		st.Epoch.Advances += e.Advances
		st.Epoch.Deferred += e.Deferred
		st.Epoch.Freed += e.Freed
		st.Epoch.Pending += e.Pending
		st.Epoch.Guards += e.Guards
		st.DescriptorsFree += sh.pool.FreeDescriptors()
		st.DescriptorsCap += sh.pool.Capacity()
		blocks, bytes := sh.alloc.InUse()
		st.AllocBlocks += blocks
		st.AllocBytes += bytes
		blocks, bytes = sh.alloc.Capacity()
		st.AllocCapBlocks += blocks
		st.AllocCapBytes += bytes
		sh.htMu.Lock()
		t := sh.ht
		sh.htMu.Unlock()
		if t != nil {
			hs := t.Stats()
			st.HashSplits += hs.Splits
			st.HashDoublings += hs.Doublings
			st.HashReclaims += hs.Reclaims
		}
	}
	st.HashSealedBuckets = st.HashSplits - st.HashReclaims
	return st
}

// Close quiesces the store: every shard's epoch clock is advanced and
// every deferred reclamation runs, so all recycled descriptors and
// blocks are durably finalized. Every handle must be idle — no operation
// in flight, no guard held (Close panics otherwise, exactly like
// EpochManager.Drain). The store must not be used after Close; for
// persistent stores, follow with Checkpoint to capture the quiesced
// image.
func (s *Store) Close() error {
	for _, sh := range s.shards {
		sh.pool.Epochs().Drain()
	}
	return nil
}

// Mode returns the store's persistence mode.
func (s *Store) Mode() Mode { return s.cfg.Mode }

// PMwCASHandle returns a per-goroutine handle for issuing raw PMwCAS
// operations and reads against shard 0.
func (s *Store) PMwCASHandle() *Handle { return s.shards[0].pool.NewHandle() }

// RegisterCallback installs a finalize callback (paper §5.2) on every
// shard's pool. IDs 1-15 are reserved by the library's own structures;
// applications should use 16 and above.
func (s *Store) RegisterCallback(id uint16, fn FinalizeFunc) error {
	for i, sh := range s.shards {
		if err := sh.pool.RegisterCallback(id, fn); err != nil {
			return fmt.Errorf("pmwcas: shard %d: %w", i, err)
		}
	}
	return nil
}

// RootWords is the number of application root slots in each shard.
const RootWords = 16

// RootWord returns the offset of application root slot i on shard 0;
// Shard(i).RootWord addresses the other shards. Roots are durable words
// at fixed offsets — the anchors from which persistent structures are
// found again after a restart. Slots are application-owned; slot
// assignments must be stable across versions of the application. (The
// first half of the root region is reserved for the library's own
// indexes.)
func (s *Store) RootWord(i int) Offset { return s.Shard(0).RootWord(i) }

// RootWord returns the offset of this shard's application root slot i.
func (sh *Shard) RootWord(i int) Offset {
	if i < 0 || i >= RootWords {
		panic(fmt.Sprintf("pmwcas: root slot %d out of range [0,%d)", i, RootWords))
	}
	return sh.state().rootsRegion.Base + nvram.LineBytes*2 + nvram.Offset(i)*nvram.WordSize
}

// Alloc reserves a block of at least size bytes on shard 0 and durably
// delivers its offset into the target word (paper §5.2); see RootWord
// for stable targets. Most callers want ReserveEntry on a descriptor
// instead; this direct form exists for application root structures.
func (s *Store) Alloc(size uint64, target Offset) (Offset, error) {
	return s.Shard(0).Alloc(size, target)
}

// Alloc reserves a block on this shard's arena; see Store.Alloc.
func (sh *Shard) Alloc(size uint64, target Offset) (Offset, error) {
	return sh.state().alloc.NewHandle().Alloc(size, target)
}

// Free releases a block previously delivered by shard 0's Alloc or a
// descriptor reservation. The caller must guarantee no thread can still
// reach it (use Epochs().Defer for lock-free structures).
func (s *Store) Free(block Offset) error { return s.Shard(0).Free(block) }

// Free releases a block on this shard's arena; see Store.Free.
func (sh *Shard) Free(block Offset) error { return sh.state().alloc.Free(block) }

// MemoryInUse reports allocated (blocks, bytes) across all shards' data
// heaps.
func (s *Store) MemoryInUse() (blocks, bytes uint64) {
	for _, sh := range s.shards {
		b, y := sh.alloc.InUse()
		blocks += b
		bytes += y
	}
	return blocks, bytes
}

// SkipList opens shard 0's skip list; see Shard.SkipList.
func (s *Store) SkipList() (*SkipList, error) { return s.Shard(0).SkipList() }

// SkipList opens this shard's skip list, creating it on first use. The
// list is a singleton per shard (anchored at fixed roots).
func (sh *Shard) SkipList() (*SkipList, error) {
	st := sh.state()
	return skiplist.New(skiplist.Config{
		Pool:      st.pool,
		Allocator: st.alloc,
		Roots:     nvram.Region{Base: st.rootsRegion.Base, Len: nvram.LineBytes},
	})
}

// CASSkipList creates a fresh volatile baseline skip list sharing the
// store's device and shard 0's allocator (for benchmarking against).
func (s *Store) CASSkipList() (*CASSkipList, error) {
	if s.cfg.Mode != Volatile {
		return nil, errors.New("pmwcas: the CAS baseline skip list requires a Volatile store")
	}
	return skiplist.NewCAS(s.dev, s.shards[0].alloc, s.shards[0].pool.Epochs())
}

// BwTreeOptions tunes the store's Bw-tree.
type BwTreeOptions struct {
	// SMO selects the structure-modification protocol (default SMOPMwCAS).
	SMO SMOMode
	// LeafCapacity / InnerCapacity bound page sizes (default 64).
	LeafCapacity  int
	InnerCapacity int
	// ConsolidateAfter is the chain length that triggers consolidation
	// (default 8).
	ConsolidateAfter int
	// MergeBelow, if > 0, merges leaves that shrink under it (SMOPMwCAS
	// only).
	MergeBelow int
}

// Queue opens shard 0's persistent FIFO queue; see Shard.Queue.
func (s *Store) Queue() (*Queue, error) { return s.Shard(0).Queue() }

// Queue opens this shard's persistent lock-free FIFO queue, creating it
// on first use. Singleton per shard (fixed anchor words).
func (sh *Shard) Queue() (*Queue, error) {
	st := sh.state()
	return pqueue.New(pqueue.Config{
		Pool:      st.pool,
		Allocator: st.alloc,
		Roots:     nvram.Region{Base: st.rootsRegion.Base + nvram.LineBytes, Len: nvram.LineBytes},
	})
}

// BlobKV opens shard 0's blob KV layer; see Shard.BlobKV.
func (s *Store) BlobKV() (*BlobKV, error) { return s.Shard(0).BlobKV() }

// BlobKV opens this shard's byte-string key-value layer over its skip
// list: short string keys, arbitrary-length values in out-of-line
// records, crash-atomic updates. Singleton per shard.
func (sh *Shard) BlobKV() (*BlobKV, error) {
	list, err := sh.SkipList()
	if err != nil {
		return nil, err
	}
	st := sh.state()
	// Each blobkv handle consumes a skip list and an allocator handle, so
	// only a quarter of the shard's handle budget is exposed here.
	n := sh.s.cfg.MaxHandles / 4
	if n < 1 {
		n = 1
	}
	return blobkv.Open(blobkv.Config{
		List:       list,
		Allocator:  st.alloc,
		Device:     sh.s.dev,
		Staging:    st.blobRegion,
		MaxHandles: n,
	})
}

// BwTree opens shard 0's Bw-tree; see Shard.BwTree.
func (s *Store) BwTree(opts BwTreeOptions) (*BwTree, error) { return s.Shard(0).BwTree(opts) }

// BwTree opens this shard's Bw-tree, creating it on first use. The tree
// is a singleton per shard (fixed mapping table region).
func (sh *Shard) BwTree(opts BwTreeOptions) (*BwTree, error) {
	st := sh.state()
	return bwtree.New(bwtree.Config{
		Pool:             st.pool,
		Allocator:        st.alloc,
		Mapping:          st.mapRegion,
		Meta:             st.metaRegion,
		SMO:              opts.SMO,
		LeafCapacity:     opts.LeafCapacity,
		InnerCapacity:    opts.InnerCapacity,
		ConsolidateAfter: opts.ConsolidateAfter,
		MergeBelow:       opts.MergeBelow,
	})
}

// HashTableOptions tunes the store's hash table.
type HashTableOptions struct {
	// SlotsPerBucket is the fixed bucket capacity (default
	// hashtable.DefaultSlotsPerBucket, a four-line bucket). An existing
	// table's durable geometry must match.
	SlotsPerBucket int
}

// HashTable opens shard 0's hash table; see Shard.HashTable.
func (s *Store) HashTable(opts HashTableOptions) (*HashTable, error) {
	return s.Shard(0).HashTable(opts)
}

// HashTable opens this shard's persistent lock-free hash table — the
// point-lookup index — creating it on first use. Singleton per shard
// (fixed anchor line and directory region); repeated opens with the same
// geometry return the same table, so its split/reclaim counters stay in
// one place for Stats.
func (sh *Shard) HashTable(opts HashTableOptions) (*HashTable, error) {
	st := sh.state()
	slots := opts.SlotsPerBucket
	if slots == 0 {
		slots = hashtable.DefaultSlotsPerBucket
	}
	st.htMu.Lock()
	defer st.htMu.Unlock()
	if st.ht != nil && st.htSlots == slots {
		return st.ht, nil
	}
	t, err := hashtable.New(hashtable.Config{
		Pool:           st.pool,
		Allocator:      st.alloc,
		Roots:          st.hashRegion,
		Dir:            st.hashDirRegion,
		SlotsPerBucket: slots,
	})
	if err != nil {
		return nil, err
	}
	st.ht, st.htSlots = t, slots
	return t, nil
}

// IndexOptions carries each index's open options through OpenIndex: the
// named index reads its own field and ignores the other.
type IndexOptions struct {
	BwTree BwTreeOptions
	Hash   HashTableOptions
}

// OpenIndex opens this shard's word index by name — "skiplist", "bwtree"
// or "hash" — and returns the function that mints its per-goroutine
// handles. The seed feeds the skip list's tower-height RNG; the other
// indexes ignore it.
func (sh *Shard) OpenIndex(name string, opt IndexOptions) (func(seed int64) IndexHandle, error) {
	switch name {
	case "skiplist":
		l, err := sh.SkipList()
		if err != nil {
			return nil, err
		}
		return func(seed int64) IndexHandle { return l.NewHandle(seed) }, nil
	case "bwtree":
		t, err := sh.BwTree(opt.BwTree)
		if err != nil {
			return nil, err
		}
		return func(int64) IndexHandle { return t.NewHandle() }, nil
	case "hash":
		t, err := sh.HashTable(opt.Hash)
		if err != nil {
			return nil, err
		}
		return func(int64) IndexHandle { return t.NewHandle() }, nil
	}
	return nil, fmt.Errorf("pmwcas: unknown index %q (want skiplist, bwtree or hash)", name)
}

// OpenIndex opens the named word index on every shard, in shard order.
// On a single-shard store the minted handles are the index's own; on a
// multi-shard store each handle holds one per shard and routes every
// point operation to the key's home shard (ShardForKey).
func (s *Store) OpenIndex(name string, opt IndexOptions) (func(seed int64) IndexHandle, error) {
	if len(s.shards) == 1 {
		return s.Shard(0).OpenIndex(name, opt)
	}
	mints := make([]func(int64) IndexHandle, len(s.shards))
	for i := range mints {
		m, err := s.Shard(i).OpenIndex(name, opt)
		if err != nil {
			return nil, fmt.Errorf("pmwcas: shard %d: %w", i, err)
		}
		mints[i] = m
	}
	return func(seed int64) IndexHandle {
		r := &routedHandle{s: s, hs: make([]IndexHandle, len(mints))}
		for i, m := range mints {
			r.hs[i] = m(seed)
		}
		return r
	}, nil
}

// routedHandle is one goroutine's handle on a multi-shard word index.
type routedHandle struct {
	s  *Store
	hs []IndexHandle // one per shard, index = shard number
}

func (r *routedHandle) home(key uint64) IndexHandle { return r.hs[r.s.ShardForKey(key)] }

func (r *routedHandle) Insert(key, value uint64) error { return r.home(key).Insert(key, value) }
func (r *routedHandle) Get(key uint64) (uint64, error) { return r.home(key).Get(key) }
func (r *routedHandle) Update(key, value uint64) error { return r.home(key).Update(key, value) }
func (r *routedHandle) Delete(key uint64) error        { return r.home(key).Delete(key) }

// Scan reports ErrUnordered: hash placement leaves no key order across
// shards. (The server merges per-shard scans itself, over Shard.OpenIndex
// handles.)
func (r *routedHandle) Scan(from, to uint64, fn func(IndexEntry) bool) error {
	return ErrUnordered
}

// Crash simulates a power failure: every cache line that was not written
// back is lost. The caller must guarantee quiescence (no in-flight
// operations), exactly as a real power failure stops all CPUs. Follow
// with Recover (or reopen via OpenDevice) before using the store again.
func (s *Store) Crash() error {
	if s.cfg.Mode != Persistent {
		return errors.New("pmwcas: Crash on a volatile store loses everything by definition")
	}
	s.dev.Crash()
	return nil
}

// Recover reruns allocator and PMwCAS recovery on this store after a
// Crash, shard by shard in shard order (Config.RecoveryHook fires after
// each). Application finalize callbacks must already be registered.
// Equivalent to (and interchangeable with) reopening via OpenDevice.
func (s *Store) Recover() (RecoveryStats, error) {
	if s.cfg.Mode != Persistent {
		return RecoveryStats{}, errors.New("pmwcas: Recover on a volatile store")
	}
	var total RecoveryStats
	// Rebuild every shard's volatile state and replay its deliveries and
	// descriptors into fresh substrates; nothing is swapped in until every
	// shard has recovered, so a failed recovery leaves the store as it was.
	fresh := make([]*storeShard, len(s.shards))
	for i, old := range s.shards {
		sh := &storeShard{
			rootsRegion: old.rootsRegion, mapRegion: old.mapRegion,
			metaRegion: old.metaRegion, blobRegion: old.blobRegion,
			hashRegion: old.hashRegion, hashDirRegion: old.hashDirRegion,
			poolRegion: old.poolRegion, allocRegion: old.allocRegion,
		}
		rst, err := buildShard(s.dev, &s.cfg, sh, true)
		if err != nil {
			return total, fmt.Errorf("pmwcas: shard %d: %w", i, err)
		}
		total.Scanned += rst.Scanned
		total.RolledForward += rst.RolledForward
		total.RolledBack += rst.RolledBack
		total.Reclaimed += rst.Reclaimed
		total.WordsRepaired += rst.WordsRepaired
		total.CorruptCounts += rst.CorruptCounts
		fresh[i] = sh
		if s.cfg.RecoveryHook != nil {
			s.cfg.RecoveryHook(i)
		}
	}
	// Swap in the recovered substrates, then poison the old ones. Handles,
	// guards, and index objects minted before the crash still reference the
	// old pools and allocators; letting them operate would silently corrupt
	// the recovered state (stale free lists, stale epoch clock, descriptors
	// the new pool believes are Free). Poisoning turns any such use into an
	// immediate panic naming the recovery that invalidated it.
	old := s.shards
	s.shards = fresh
	for _, sh := range old {
		sh.pool.Poison("Store.Recover replaced this pool; re-mint handles from the store")
		sh.alloc.Poison("Store.Recover replaced this allocator; re-mint handles from the store")
	}
	return total, nil
}

// Checkpoint writes the durable image to a file. The snapshot is
// crash-consistent: restoring it with OpenFile is equivalent to a power
// failure at the moment of the checkpoint, repaired by recovery.
func (s *Store) Checkpoint(path string) error { return s.dev.SaveFile(path) }

// CheckOptions tunes Store.CheckInvariants.
type CheckOptions struct {
	// Blob additionally validates skip list values as blob-KV records and
	// scans the blob staging slots. Set it whenever the store's skip list
	// is used through BlobKV — without it the list's values are opaque
	// integers and staged blob records would read as allocator leaks.
	Blob bool
}

// DurableState is the logical content CheckInvariants extracted from the
// durable image — the ground truth a durable-linearizability oracle
// compares against. With multiple shards the slices hold every shard's
// entries, concatenated in shard order.
type DurableState struct {
	SkipList []SkipListEntry
	BwTree   []BwTreeEntry
	Hash     []HashEntry       // unspecified order
	Queue    []uint64          // FIFO order within each shard
	Blobs    map[string][]byte // only populated with CheckOptions.Blob
	// HashCheck summarizes the hash tables' structure across shards
	// (bucket counts, sealed interior buckets awaiting reclaim,
	// tombstoned edges).
	HashCheck hashtable.CheckStats
}

// CheckInvariants audits the whole store — every shard — against its
// structural invariants. It must run on a quiescent, freshly recovered
// store (right after OpenDevice/OpenFile/Recover, before any new
// operation): it reads the raw image, so concurrent mutators would race
// it, and it asserts the post-recovery ground state of the descriptor
// pools.
//
// Layers checked per shard, in order: the descriptor pool (every
// descriptor durably Free, count zero, on the free list), each index's
// structural invariants (see skiplist.Check, bwtree.Check, pqueue.Check,
// blobkv.Check), and finally the shard's allocator bitmap against the
// union of every block its indexes reach — a block allocated but
// unreachable is a leak, a block reachable but not allocated is
// dangling. Any shard's failure fails the whole audit, with the error
// naming the shard.
func (s *Store) CheckInvariants(opt CheckOptions) (*DurableState, error) {
	st := &DurableState{}
	for i, sh := range s.shards {
		if err := s.checkShard(i, sh, opt, st); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return st, nil
}

func (s *Store) checkShard(i int, sh *storeShard, opt CheckOptions, st *DurableState) error {
	if err := sh.pool.CheckRecovered(); err != nil {
		return err
	}
	var reachable []Offset

	skipRoots := nvram.Region{Base: sh.rootsRegion.Base, Len: nvram.LineBytes}
	blocks, entries, err := skiplist.Check(s.dev, skipRoots)
	if err != nil {
		return err
	}
	reachable = append(reachable, blocks...)
	st.SkipList = append(st.SkipList, entries...)

	qRoots := nvram.Region{Base: sh.rootsRegion.Base + nvram.LineBytes, Len: nvram.LineBytes}
	blocks, values, err := pqueue.Check(s.dev, qRoots)
	if err != nil {
		return err
	}
	reachable = append(reachable, blocks...)
	st.Queue = append(st.Queue, values...)

	blocks, tentries, err := bwtree.Check(s.dev, sh.mapRegion, sh.metaRegion)
	if err != nil {
		return err
	}
	reachable = append(reachable, blocks...)
	st.BwTree = append(st.BwTree, tentries...)

	blocks, hentries, hstats, err := hashtable.Check(s.dev, sh.hashRegion, sh.hashDirRegion)
	if err != nil {
		return err
	}
	reachable = append(reachable, blocks...)
	st.Hash = append(st.Hash, hentries...)
	st.HashCheck.Buckets += hstats.Buckets
	st.HashCheck.Live += hstats.Live
	st.HashCheck.Sealed += hstats.Sealed
	st.HashCheck.SeveredEdges += hstats.SeveredEdges

	if opt.Blob {
		n := s.cfg.MaxHandles / 4
		if n < 1 {
			n = 1
		}
		// Blob records live on the same shard as their skip list entries,
		// so this shard's slice of st.SkipList is exactly `entries`.
		blocks, blobs, err := blobkv.Check(s.dev, sh.alloc, sh.blobRegion, n, entries)
		if err != nil {
			return err
		}
		reachable = append(reachable, blocks...)
		if st.Blobs == nil {
			st.Blobs = make(map[string][]byte)
		}
		for k, v := range blobs {
			st.Blobs[k] = v
		}
	}

	return sh.alloc.CheckInUse(reachable)
}
