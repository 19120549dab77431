package pmwcas

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"time"

	"pmwcas/internal/alloc"
	"pmwcas/internal/blobkv"
	"pmwcas/internal/bwtree"
	"pmwcas/internal/core"
	"pmwcas/internal/hashtable"
	"pmwcas/internal/index"
	"pmwcas/internal/nvram"
	"pmwcas/internal/pqueue"
	"pmwcas/internal/skiplist"
)

// Config sizes a Store. The zero value is a usable default: a 64 MiB
// persistent single-shard store with general-purpose size classes.
type Config struct {
	// Size is the simulated NVRAM capacity in bytes (default 64 MiB),
	// shared evenly by all shards. Layout is derived deterministically
	// from Size, Shards, Descriptors and Classes. Create records the four
	// in the device's reserved first line, and every open reads them back:
	// there a zero Size, Shards or Descriptors means the image's, and one
	// that is set must match it.
	Size uint64
	// Mode selects Persistent (default) or Volatile. Create builds a
	// Volatile store on a volatile device (nvram.WithVolatile), whose
	// flushes and fences cost nothing; OpenDevice requires a device of
	// the matching kind, and OpenFile refuses Volatile.
	Mode Mode
	// Shards partitions the store into independent engines (default 1),
	// each owning its own slice of the device: descriptor pool, allocator
	// arena and epoch manager, root lines, and Bw-tree mapping table.
	// Shards never share mutable state, so operations on different shards
	// contend on nothing — the shard-per-core layout. Keys are placed by
	// ShardForKey; Descriptors and Classes are per shard.
	Shards int
	// Descriptors is each shard's PMwCAS pool capacity (default 1024).
	Descriptors int
	// MaxHandles is unused: it sizes nothing, and it stays only because
	// the benchmark's store configuration sets it.
	MaxHandles int
	// Classes overrides each shard's allocator size classes. The default
	// covers skip list nodes, Bw-tree deltas, and Bw-tree pages.
	Classes []SizeClass
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

// descriptorWords is every descriptor's capacity: the widest PMwCAS any
// of the store's structures builds, a hash split of a default bucket (16
// words; a skip-list base delete takes 15). Both round up to the same
// 576-byte descriptor.
const descriptorWords = max(skiplist.MinDescriptorWords, hashtable.MinDescriptorWords)

// mappingSlots sizes each shard's Bw-tree mapping table from its budget:
// one word per KiB (65,536 LPIDs in the default 64 MiB store), and at
// least the 16 the tree requires.
func (c *Config) mappingSlots() uint64 {
	return max(c.Size/uint64(c.Shards)/1024, 16)
}

// fill applies defaults and validates that the fixed regions fit the
// per-shard budget. The mapping table takes a fixed share of it, so only
// the descriptor pool can outgrow it: fill reports that with an error
// naming Descriptors, instead of letting a later layout carve panic (or
// an allocator with clamped classes limp along) obscure which knob was
// wrong.
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
	if c.Descriptors < 0 {
		return fmt.Errorf("pmwcas: Descriptors must be positive, got %d", c.Descriptors)
	}
	shardBudget := c.Size / uint64(c.Shards)
	poolBytes := core.PoolSize(c.Descriptors, descriptorWords)
	// The mapping table and the roots lines, plus bitmap and
	// line-rounding slack.
	const slack = 64 << 10
	fixed := poolBytes + c.mappingSlots()*nvram.WordSize + slack
	if fixed >= shardBudget {
		return fmt.Errorf(
			"pmwcas: fixed regions need %d bytes but each shard has %d (Size %d / Shards %d); the descriptor pool (Descriptors %d) takes %d",
			fixed, shardBudget, c.Size, c.Shards, c.Descriptors, poolBytes)
	}
	if c.Classes == nil {
		// Derive classes from whatever is left after the fixed regions,
		// with ~10% slack for bitmaps and rounding: five classes sharing
		// the per-shard data budget evenly.
		per := (shardBudget - fixed) * 9 / 10 / 5
		c.Classes = []SizeClass{
			{BlockSize: 64, Count: max(per/64, 64)},
			{BlockSize: 128, Count: max(per/128, 32)},
			{BlockSize: 256, Count: max(per/256, 16)},
			{BlockSize: 1024, Count: max(per/1024, 16)},
			{BlockSize: 4096, Count: max(per/4096, 8)},
		}
	}
	return nil
}

// layoutNames name the layout inputs Create records in words 2–5 of the
// device's reserved first line (word 0 is the nil offset, word 1 the
// volatile baselines' scratch target), and every open reads back: a
// device laid out with others would be read at the wrong offsets. A
// blank image, or one older than the record, holds Size 0.
var layoutNames = [...]string{"Size", "Shards", "Descriptors", "Classes hash"}

// layoutWord is the offset of recorded word i.
func layoutWord(i int) Offset { return nvram.Offset(i+2) * nvram.WordSize }

// layout returns the recorded words: Size, Shards, Descriptors and an
// FNV-1a hash of the resolved Classes.
func (c *Config) layout() [len(layoutNames)]uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, c.Classes)
	return [...]uint64{c.Size, uint64(c.Shards), uint64(c.Descriptors), h.Sum64()}
}

// adopt completes cfg from the layout record on dev: a zero Size, Shards
// or Descriptors takes the recorded value, and one that is set must equal
// it. fill then derives default Classes from the adopted geometry exactly
// as Create derived them, so the recorded hash checks them as it checks
// custom ones.
func (c *Config) adopt(dev *nvram.Device) error {
	var rec [len(layoutNames)]uint64
	for i := range rec {
		rec[i] = dev.Load(layoutWord(i))
	}
	if rec[0] == 0 {
		return errors.New("pmwcas: the device holds no layout record (Size 0): Create never laid it out, or laid it out before the record existed")
	}
	c.Size = cmp.Or(c.Size, rec[0])
	c.Shards = cmp.Or(c.Shards, int(rec[1]))
	c.Descriptors = cmp.Or(c.Descriptors, int(rec[2]))
	if err := c.fill(); err != nil {
		return err
	}
	for i, want := range c.layout() {
		if rec[i] != want {
			return fmt.Errorf("pmwcas: the image was laid out with %s %d, the config gives %d", layoutNames[i], rec[i], want)
		}
	}
	if dev.Size() < c.Size {
		return fmt.Errorf("pmwcas: the layout record gives Size %d, but the device holds %d bytes", c.Size, dev.Size())
	}
	return nil
}

// deviceOptions are the device settings cfg asks for: Create and OpenFile
// both build their device from them. A zero rate leaves its knob off.
func (c *Config) deviceOptions() []nvram.Option {
	opts := []nvram.Option{
		nvram.WithFlushLatency(c.FlushLatency),
		nvram.WithEviction(c.EvictEvery),
		nvram.WithYield(c.YieldEvery),
	}
	if c.EvictSeed != 0 {
		opts = append(opts, nvram.WithEvictionSeed(c.EvictSeed))
	}
	if c.Mode == Volatile {
		opts = append(opts, nvram.WithVolatile())
	}
	return opts
}

// storeShard is one shard's private slice of the store: its own regions,
// descriptor pool (and thus epoch manager), and allocator arena. Shards
// share only the device; every mutable word belongs to exactly one.
type storeShard struct {
	pool  *core.Pool
	alloc *alloc.Allocator

	// rootsRegion's first line holds the skip list's anchors (words 0–1),
	// the hash table's (words 2–3) and the blob tag (word 7); its second
	// the queue's anchors; its last two the application roots.
	rootsRegion nvram.Region
	mapRegion   nvram.Region // Bw-tree mapping table; word 0 is its next-LPID counter
	poolRegion  nvram.Region
	allocRegion nvram.Region

	// The hash table is a per-shard singleton: caching it keeps the
	// shard's one DRAM directory, and one set of split and doubling
	// counters per shard for Stats.
	htMu    sync.Mutex
	ht      *hashtable.Table
	htSlots int
	// The skip list is cached the same way, so every open of the shard
	// shares one DRAM top.
	slMu sync.Mutex
	sl   *skiplist.List
	// blobMu serializes OpenBlobKV, so two first opens cannot both find
	// no index tag and open layers over different indexes.
	blobMu sync.Mutex
}

// Store assembles the full system: simulated NVRAM device and, per
// shard, a persistent allocator, PMwCAS descriptor pool, root lines for
// anchoring the indexes and application structures, and the Bw-tree
// mapping table. Shard region groups are carved back to back in shard
// order. The whole layout is a pure function of Config, which is what
// makes recovery possible: after a crash, opening the same device with
// the same Config finds every structure where it was.
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
	dev := nvram.New(cfg.Size, cfg.deviceOptions()...)
	for i, w := range cfg.layout() {
		dev.Store(layoutWord(i), w)
	}
	dev.Flush(0)
	dev.Fence()
	s, _, err := assemble(dev, cfg, false)
	return s, err
}

// OpenDevice wraps an existing device (for example, one that just
// crashed, or was restored from a snapshot) and, unless the device is
// volatile, rebuilds each allocator from its bitmaps and runs PMwCAS
// recovery shard by shard. The geometry comes from the device's layout
// record (see Config.Size; default Classes are derived from it again,
// custom ones must be passed in), and a device with no record fails.
// cfg.Mode must match the device.
func OpenDevice(dev *nvram.Device, cfg Config) (*Store, error) {
	if err := cfg.adopt(dev); err != nil {
		return nil, err
	}
	s, _, err := assemble(dev, cfg, !dev.Volatile())
	return s, err
}

// OpenFile restores a store from a snapshot file written by Checkpoint
// and runs recovery. The device is as large as the snapshot, takes cfg's
// device settings (FlushLatency, eviction, YieldEvery), and is opened as
// OpenDevice opens it, so Config{} opens any image laid out with default
// Classes. A snapshot is a crash image and a volatile device would skip
// its recovery, so a Volatile Mode is refused.
func OpenFile(path string, cfg Config) (*Store, error) {
	if cfg.Mode != Persistent {
		return nil, fmt.Errorf("pmwcas: OpenFile needs Mode %s, the config gives Mode %s: a snapshot is a crash image, and a volatile device skips its recovery",
			Persistent, cfg.Mode)
	}
	dev, err := nvram.LoadFile(path, cfg.deviceOptions()...)
	if err != nil {
		return nil, err
	}
	return OpenDevice(dev, cfg)
}

// buildShard carves one shard's region group from l, then constructs
// the shard's allocator (its free lists rebuilt from the durable bitmaps)
// and pool over it and, when recovering, replays the shard's
// descriptors. The order and sizes of the carves are the image format:
// changing one moves every later region, and images laid out before the
// change no longer open.
func buildShard(dev *nvram.Device, l *nvram.Layout, cfg *Config, recover bool) (*storeShard, RecoveryStats, error) {
	var rst RecoveryStats
	sh := &storeShard{}
	sh.poolRegion = l.Carve(core.PoolSize(cfg.Descriptors, descriptorWords))
	sh.allocRegion = l.Carve(alloc.MetaSize(cfg.Classes, 0))
	sh.rootsRegion = l.Carve(nvram.LineBytes * 4) // 32 root words
	sh.mapRegion = l.Carve(cfg.mappingSlots() * nvram.WordSize)
	var err error
	sh.alloc, err = alloc.New(dev, sh.allocRegion, cfg.Classes, 0)
	if err != nil {
		return nil, rst, fmt.Errorf("allocator: %w", err)
	}
	sh.pool, err = core.NewPool(core.Config{
		Device:             dev,
		Region:             sh.poolRegion,
		DescriptorCount:    cfg.Descriptors,
		WordsPerDescriptor: descriptorWords,
		Mode:               cfg.Mode,
		Allocator:          sh.alloc,
	})
	if err != nil {
		return nil, rst, fmt.Errorf("pool: %w", err)
	}
	// Finalize callbacks must exist before recovery replays descriptors.
	bwtree.RegisterRecoveryCallbacks(sh.pool)
	if recover {
		if rst, err = sh.pool.Recover(); err != nil {
			return nil, rst, fmt.Errorf("recovery: %w", err)
		}
	}
	return sh, rst, nil
}

// assemble is the store's one carve → build → recover loop: it builds
// every shard of cfg on dev in shard order and, when recover is set,
// replays each shard's descriptors, calls RecoveryHook after each, and
// sums what recovery did. Create, OpenDevice and Recover all run it.
func assemble(dev *nvram.Device, cfg Config, recover bool) (*Store, RecoveryStats, error) {
	var total RecoveryStats
	s := &Store{cfg: cfg, dev: dev}
	l := nvram.NewLayout(dev)
	for i := 0; i < cfg.Shards; i++ {
		sh, rst, err := buildShard(dev, l, &cfg, recover)
		total.Scanned += rst.Scanned
		total.RolledForward += rst.RolledForward
		total.RolledBack += rst.RolledBack
		total.WordsRepaired += rst.WordsRepaired
		total.CorruptCounts += rst.CorruptCounts
		if err != nil {
			return nil, total, fmt.Errorf("pmwcas: shard %d: %w", i, err)
		}
		s.shards = append(s.shards, sh)
		if recover && cfg.RecoveryHook != nil {
			cfg.RecoveryHook(i)
		}
	}
	return s, total, nil
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
	// shard's HashTable is opened): each split adds one bucket. The
	// durable count is in DurableState.HashCheck.
	HashSplits, HashDoublings uint64
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
		}
	}
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

// Alloc reserves a block of at least size bytes on shard 0, with the
// lines size spans zeroed, and publishes its offset into the target word with one PMwCAS, replacing
// (not freeing) what target held; see RootWord for stable targets. Until
// that PMwCAS commits its descriptor owns the block, so a crash inside
// Alloc frees it and leaves target as it was (§5.2).
func (s *Store) Alloc(size uint64, target Offset) (Offset, error) {
	return s.Shard(0).Alloc(size, target)
}

// Alloc reserves a block on this shard's arena; see Store.Alloc.
func (sh *Shard) Alloc(size uint64, target Offset) (Offset, error) {
	return sh.state().pool.AllocInto(size, target)
}

// Free releases a block previously delivered by shard 0's Alloc or a
// descriptor reservation. The caller must guarantee no thread can still
// reach it (use Epochs().DeferRetire for lock-free structures).
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
// list is a singleton per shard (anchored at fixed roots), and every open
// returns the same *SkipList.
func (sh *Shard) SkipList() (*SkipList, error) {
	st := sh.state()
	st.slMu.Lock()
	defer st.slMu.Unlock()
	if st.sl != nil {
		return st.sl, nil
	}
	l, err := skiplist.New(skiplist.Config{
		Pool:      st.pool,
		Allocator: st.alloc,
		Roots:     nvram.Region{Base: st.rootsRegion.Base, Len: nvram.LineBytes},
	})
	if err != nil {
		return nil, err
	}
	st.sl = l
	return l, nil
}

// BwTreeOptions tunes the store's Bw-tree.
type BwTreeOptions struct {
	// SMO selects the structure-modification protocol (default SMOPMwCAS).
	SMO SMOMode
	// LeafCapacity / InnerCapacity bound page sizes (default 61, the
	// most entries whose base page fits a 1 KiB block).
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

// BlobKV opens this shard's blob KV layer over its skip list; see
// OpenBlobKV.
func (sh *Shard) BlobKV() (*BlobKV, error) { return sh.OpenBlobKV("skiplist", IndexOptions{}) }

// blobIndexes names the indexes a blob layer can be on. A shard records
// its layer's index in the last word of its first roots line, as its
// position here plus one; zero means no layer has been opened.
var blobIndexes = []string{"skiplist", "bwtree", "hash"}

func (st *storeShard) blobTagWord() Offset {
	return st.rootsRegion.Base + nvram.LineBytes - nvram.WordSize
}

func (st *storeShard) hashRoots() nvram.Region {
	return nvram.Region{Base: st.rootsRegion.Base + 2*nvram.WordSize, Len: hashtable.RootWords * nvram.WordSize}
}

// blobIndexOn names the index a blob-layer tag records.
func blobIndexOn(tag uint64) string {
	if tag == 0 || tag > uint64(len(blobIndexes)) {
		return fmt.Sprintf("unknown (tag %d)", tag)
	}
	return blobIndexes[tag-1]
}

// blobTag reads which index this shard's blob layer is on, for opening
// one over name. An untagged index that already exists holds word
// values, which a layer opened over it would take for record offsets, so
// that is refused. (OpenBlobKV writes the tag before it creates the
// index, so a layer's own index is never found untagged.)
func (sh *Shard) blobTag(name string) (uint64, error) {
	st, dev := sh.state(), sh.s.dev
	if on := dev.Load(st.blobTagWord()); on != 0 {
		return on, nil
	}
	anchor := map[string]Offset{
		"skiplist": st.rootsRegion.Base, // the list's head anchor
		"bwtree":   st.mapRegion.Base,   // the tree's next-LPID counter
		"hash":     st.hashRoots().Base, // the table's root bucket
	}[name]
	if dev.Load(anchor) != 0 {
		return 0, fmt.Errorf("pmwcas: shard %d's %s index already holds word values; a blob layer cannot open over it",
			sh.i, name)
	}
	return 0, nil
}

// OpenBlobKV opens this shard's byte-string key-value layer over the
// named index ("skiplist", "bwtree" or "hash"): short string keys,
// values up to blobkv.MaxValueLen bytes in out-of-line records,
// crash-atomic updates. Singleton per shard: the first open records the
// index durably, and reopening the layer over another index fails. The
// Bw-tree must run a descriptor SMO mode: SMOSingleCAS installs deltas
// with plain CAS, which cannot free the record an overwrite displaces.
func (sh *Shard) OpenBlobKV(name string, opt IndexOptions) (*BlobKV, error) {
	st, dev := sh.state(), sh.s.dev
	tag := uint64(slices.Index(blobIndexes, name) + 1)
	if tag == 0 {
		return nil, errUnknownIndex(name)
	}
	if name == "bwtree" && opt.BwTree.SMO == SMOSingleCAS {
		return nil, fmt.Errorf("pmwcas: shard %d: %w", sh.i, bwtree.ErrOwnedSingleCAS)
	}
	st.blobMu.Lock()
	defer st.blobMu.Unlock()
	on, err := sh.blobTag(name)
	if err != nil {
		return nil, err
	}
	if on != 0 && on != tag {
		return nil, fmt.Errorf("pmwcas: shard %d's blob layer is on the %s index; cannot reopen it over %s",
			sh.i, blobIndexOn(on), name)
	}
	setTag := func(v uint64) {
		dev.Store(st.blobTagWord(), v)
		dev.Flush(st.blobTagWord())
		dev.Fence()
	}
	if on == 0 {
		setTag(tag)
	}
	mint, err := sh.openOwner(name, opt)
	if err != nil {
		if on == 0 {
			setTag(0) // the layer never opened, so it is on no index yet
		}
		return nil, err
	}
	return blobkv.Open(blobkv.Config{Index: mint, Allocator: st.alloc, Device: dev})
}

// BwTree opens shard 0's Bw-tree; see Shard.BwTree.
func (s *Store) BwTree(opts BwTreeOptions) (*BwTree, error) { return s.Shard(0).BwTree(opts) }

// BwTree opens this shard's Bw-tree, creating it on first use. The tree
// is a singleton per shard (fixed mapping table region, one LPID per KiB
// of the shard's budget: a split past it fails with "mapping table full").
func (sh *Shard) BwTree(opts BwTreeOptions) (*BwTree, error) {
	st := sh.state()
	return bwtree.New(bwtree.Config{
		Pool:             st.pool,
		Allocator:        st.alloc,
		Mapping:          st.mapRegion,
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
	// hashtable.DefaultSlotsPerBucket, a four-line bucket, and the most
	// a store's descriptors fit: a split is a PMwCAS of 2 + SlotsPerBucket
	// words). An existing table's durable geometry must match.
	SlotsPerBucket int
}

// HashTable opens shard 0's hash table; see Shard.HashTable.
func (s *Store) HashTable(opts HashTableOptions) (*HashTable, error) {
	return s.Shard(0).HashTable(opts)
}

// HashTable opens this shard's persistent lock-free hash table — the
// point-lookup index — creating it on first use. Singleton per shard
// (fixed anchor words); repeated opens with the same geometry return the
// same table, so its DRAM directory and its split and doubling counters
// stay in one place.
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
		Roots:          st.hashRoots(),
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
	mint, err := sh.openOwner(name, opt)
	if err != nil {
		return nil, err
	}
	return func(seed int64) IndexHandle { return mint(seed) }, nil
}

// openOwner is OpenIndex minting the handles as index.Owner, which every
// persistent index's handle is.
func (sh *Shard) openOwner(name string, opt IndexOptions) (func(seed int64) index.Owner, error) {
	switch name {
	case "skiplist":
		l, err := sh.SkipList()
		if err != nil {
			return nil, err
		}
		return func(seed int64) index.Owner { return l.NewHandle(seed) }, nil
	case "bwtree":
		t, err := sh.BwTree(opt.BwTree)
		if err != nil {
			return nil, err
		}
		return func(int64) index.Owner { return t.NewHandle() }, nil
	case "hash":
		t, err := sh.HashTable(opt.Hash)
		if err != nil {
			return nil, err
		}
		return func(int64) index.Owner { return t.NewHandle() }, nil
	}
	return nil, errUnknownIndex(name)
}

func errUnknownIndex(name string) error {
	return fmt.Errorf("pmwcas: unknown index %q (want skiplist, bwtree or hash)", name)
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
	if s.dev.Volatile() {
		return errors.New("pmwcas: Crash on a volatile store loses everything by definition")
	}
	s.dev.Crash()
	return nil
}

// Recover rebuilds the allocators and reruns PMwCAS recovery on this
// store after a Crash, shard by shard in shard order (Config.RecoveryHook
// fires after each). Application finalize callbacks must already be
// registered. Equivalent to (and interchangeable with) reopening via
// OpenDevice.
func (s *Store) Recover() (RecoveryStats, error) {
	if s.dev.Volatile() {
		return RecoveryStats{}, errors.New("pmwcas: Recover on a volatile store")
	}
	// Recovery builds fresh substrates; nothing is swapped in until every
	// shard has recovered, so a failed recovery leaves the store as it was.
	fresh, total, err := assemble(s.dev, s.cfg, true)
	if err != nil {
		return total, err
	}
	// Swap in the recovered substrates, then poison the old ones. Handles,
	// guards, and index objects minted before the crash still reference the
	// old pools and allocators; letting them operate would silently corrupt
	// the recovered state (stale free lists, stale epoch clock, descriptors
	// the new pool believes are Free). Poisoning turns any such use into an
	// immediate panic naming the recovery that invalidated it.
	old := s.shards
	s.shards = fresh.shards
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
	// Blob is inert: CheckInvariants validates a shard's blob records
	// exactly when the shard's tag names the index its blob layer is on.
	// The field stays only because the benchmark still sets it.
	Blob bool
}

// DurableState is the logical content CheckInvariants extracted from the
// durable image — the ground truth a durable-linearizability oracle
// compares against. With multiple shards the slices hold every shard's
// entries, concatenated in shard order. An index that carries a shard's
// blob layer holds record offsets, not words: its entries are reported
// in Blobs, not in the index's slice.
type DurableState struct {
	SkipList []SkipListEntry
	BwTree   []BwTreeEntry
	Hash     []HashEntry       // unspecified order
	Queue    []uint64          // FIFO order within each shard
	Blobs    map[string][]byte // every blob layer's values; nil if no shard has a layer
	// HashCheck summarizes the hash tables' structure across shards
	// (bucket counts).
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
// structural invariants (see skiplist.Check, bwtree.Check, pqueue.Check),
// the blob records of the index the shard's tag names (blobkv.Check),
// and finally the shard's allocator bitmap against the union of every
// block its indexes reach — a block allocated but unreachable is a leak,
// a block reachable but not allocated is dangling. Any shard's failure
// fails the whole audit, with the error naming the shard.
func (s *Store) CheckInvariants(CheckOptions) (*DurableState, error) {
	st := &DurableState{}
	for i, sh := range s.shards {
		if err := s.checkShard(sh, st); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return st, nil
}

func (s *Store) checkShard(sh *storeShard, st *DurableState) error {
	if err := sh.pool.CheckRecovered(); err != nil {
		return err
	}
	var reachable []Offset

	skipRoots := nvram.Region{Base: sh.rootsRegion.Base, Len: nvram.LineBytes}
	blocks, skip, err := skiplist.Check(s.dev, skipRoots)
	if err != nil {
		return err
	}
	reachable = append(reachable, blocks...)

	qRoots := nvram.Region{Base: sh.rootsRegion.Base + nvram.LineBytes, Len: nvram.LineBytes}
	blocks, values, err := pqueue.Check(s.dev, qRoots)
	if err != nil {
		return err
	}
	reachable = append(reachable, blocks...)
	st.Queue = append(st.Queue, values...)

	blocks, tree, err := bwtree.Check(s.dev, sh.mapRegion)
	if err != nil {
		return err
	}
	reachable = append(reachable, blocks...)

	blocks, hash, hstats, err := hashtable.Check(s.dev, sh.hashRoots())
	if err != nil {
		return err
	}
	reachable = append(reachable, blocks...)
	st.HashCheck.Buckets += hstats.Buckets
	st.HashCheck.Live += hstats.Live

	if tag := s.dev.Load(sh.blobTagWord()); tag != 0 {
		// Blob records live on the same shard as their index entries, so
		// this shard's slice of the layer's index is exactly its Check's.
		idx, ok := map[string]*[]IndexEntry{"skiplist": &skip, "bwtree": &tree, "hash": &hash}[blobIndexOn(tag)]
		if !ok {
			return fmt.Errorf("the blob-layer tag names %s", blobIndexOn(tag))
		}
		blocks, blobs, err := blobkv.Check(s.dev, sh.alloc, *idx)
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
		*idx = nil
	}
	st.SkipList = append(st.SkipList, skip...)
	st.BwTree = append(st.BwTree, tree...)
	st.Hash = append(st.Hash, hash...)

	return sh.alloc.CheckInUse(reachable)
}
