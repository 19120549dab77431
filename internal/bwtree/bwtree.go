// Package bwtree implements the paper's second case study (§6.2): the
// Bw-tree, the lock-free B+-tree used by SQL Server Hekaton, built here
// in two flavors sharing one code base:
//
//   - SMOPMwCAS: structure modification operations (page splits and
//     merges) are each a single PMwCAS spanning the mapping-table words
//     of every page the SMO touches. No thread can ever observe a
//     partial SMO, so the help-along protocol, the split/merge collision
//     detection at the parent, and the associated recovery races simply
//     do not exist.
//   - SMOSingleCAS: the classic volatile Bw-tree protocol — an SMO is a
//     sequence of single-word CAS steps (install sibling, install split
//     delta, post index-entry delta to the parent), and every traversal
//     that encounters an in-progress split must help complete it. This
//     is the baseline the paper measures against. It is volatile only:
//     multi-step SMOs have no crash story, which is the other half of
//     the argument. Merge SMOs are deliberately not implemented in this
//     mode — the split/merge collision handling they require at the
//     parent is exactly the subtle code the paper reports deleting.
//
// # Physical layout
//
// The mapping table is an array of NVRAM words, one per logical page ID
// (LPID); entry L holds the arena offset of page L's delta chain head.
// Inter-page links are always LPIDs, never raw offsets, so replacing a
// page is one word swap (copy-on-write, Figure 4). Pages and deltas are
// immutable once published; updates prepend delta records and
// consolidation collapses a chain into a fresh base page.
package bwtree

import (
	"errors"
	"fmt"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/epoch"
	"pmwcas/internal/index"
	"pmwcas/internal/metrics"
	"pmwcas/internal/nvram"
)

// SMOMode selects how structure modifications are installed.
type SMOMode int

const (
	// SMOPMwCAS installs each SMO as one multi-word PMwCAS (§6.2).
	SMOPMwCAS SMOMode = iota
	// SMOSingleCAS uses the classic multi-step single-CAS protocol with
	// help-along. Volatile only.
	SMOSingleCAS
)

func (m SMOMode) String() string {
	if m == SMOSingleCAS {
		return "SingleCAS"
	}
	return "PMwCAS"
}

// MaxKey bounds user keys: valid keys are 1..MaxKey-1. MaxKey itself is
// the rightmost fence.
const MaxKey uint64 = 1<<60 - 1

// RootLPID is the fixed logical page ID of the root. The root LPID never
// changes; root splits swap the page behind it.
const RootLPID = 1

var (
	// ErrKeyExists and ErrNotFound are the shared index sentinels.
	ErrKeyExists = index.ErrKeyExists
	ErrNotFound  = index.ErrNotFound
	// ErrKeyRange is returned for keys outside [1, MaxKey).
	ErrKeyRange = errors.New("bwtree: key out of range")
	// ErrValueRange is returned for values with reserved high bits.
	ErrValueRange = errors.New("bwtree: value out of range")
	// ErrMappingFull is returned when no LPIDs remain.
	ErrMappingFull = errors.New("bwtree: mapping table full")
)

// Config assembles a tree over its substrates.
type Config struct {
	Pool      *core.Pool       // descriptor pool; Volatile pool required for SMOSingleCAS
	Allocator *alloc.Allocator // page/delta storage
	// Mapping is the mapping-table region; one word per LPID. Word 0,
	// which no page can have (LPID 0 is nil), is the next-LPID counter.
	// Must be stable across restarts.
	Mapping nvram.Region
	// SMO selects the structure-modification protocol.
	SMO SMOMode
	// LeafCapacity is the max entries in a leaf base page before it
	// splits (default 61, see defaultCapacity). Min 8.
	LeafCapacity int
	// InnerCapacity is the same bound for inner pages (default 61).
	InnerCapacity int
	// ConsolidateAfter is the delta-chain length that triggers
	// consolidation (default 8).
	ConsolidateAfter int
	// MergeBelow, if > 0, merges a leaf whose consolidated size drops
	// under it (SMOPMwCAS only; default 0 = merging off).
	MergeBelow int
}

// defaultCapacity is the most entries whose base page fits a 1 KiB block
// (baseSize(61) = 1,016 B), the largest of the store's default size
// classes below 4 KiB: a full page of 62–64 entries would take a 4 KiB
// block for little more than 1 KiB of data.
const defaultCapacity = (1024 - baseEntriesOff) / entrySize

// Tree is a lock-free B+-tree over a simulated-NVRAM mapping table.
// Methods are called through per-goroutine Handles.
type Tree struct {
	dev   *nvram.Device
	pool  *core.Pool
	alloc *alloc.Allocator
	smo   SMOMode

	mapping  nvram.Region
	nLPID    uint64
	nextLPID nvram.Offset // durable counter word: mapping word 0

	leafCap    int
	innerCap   int
	consolAt   int
	mergeBelow int
}

// deferFree schedules a chain for reclamation once no traversal can
// still hold it; DeferRetire also keeps the epoch clock moving.
func (t *Tree) deferFree(head uint64) { t.pool.Epochs().DeferRetire(t, head, 0) }

// RetireRun implements epoch.Retiree: heads are retired chain heads, and
// every record of every chain is freed in one batch, each bitmap line
// written back once. The tree registers itself with DeferRetire instead
// of a closure so scheduling reclamation never heap-allocates (deferFree
// is on the //pmwcas:hotpath proof).
func (t *Tree) RetireRun(heads, _ []uint64) {
	var buf [256]nvram.Offset // the run's records; a longer batch spills to the heap
	recs := buf[:0]
	for _, head := range heads {
		for rec := head; rec != 0; rec = chainNext(t.dev, rec) {
			recs = append(recs, rec)
		}
	}
	_ = t.alloc.FreeManyWithBarrier(recs, nil)
}

// New opens a tree, creating it on a fresh region with one PMwCAS
// (core.Pool.OpenAnchors). Reopening after a crash requires allocator and
// pool recovery first; the tree itself needs no recovery pass of its own.
func New(cfg Config) (*Tree, error) {
	if cfg.Pool == nil || cfg.Allocator == nil {
		return nil, errors.New("bwtree: Pool and Allocator are required")
	}
	if cfg.SMO == SMOSingleCAS && cfg.Pool.Mode() != core.Volatile {
		return nil, errors.New("bwtree: SMOSingleCAS requires a Volatile pool (multi-step SMOs cannot recover)")
	}
	if cfg.Pool.WordsPerDescriptor() < 6 {
		return nil, fmt.Errorf("bwtree: pool descriptors hold %d words, need >= 6", cfg.Pool.WordsPerDescriptor())
	}
	if cfg.LeafCapacity == 0 {
		cfg.LeafCapacity = defaultCapacity
	}
	if cfg.InnerCapacity == 0 {
		cfg.InnerCapacity = defaultCapacity
	}
	if cfg.ConsolidateAfter == 0 {
		cfg.ConsolidateAfter = 8
	}
	if cfg.LeafCapacity < 8 || cfg.InnerCapacity < 8 {
		return nil, errors.New("bwtree: page capacity must be >= 8")
	}
	if cfg.MergeBelow > 0 && cfg.SMO != SMOPMwCAS {
		return nil, errors.New("bwtree: merging requires SMOPMwCAS")
	}
	if cfg.MergeBelow >= cfg.LeafCapacity/2 {
		if cfg.MergeBelow > 0 {
			return nil, errors.New("bwtree: MergeBelow must stay under half the leaf capacity")
		}
	}
	if cfg.Mapping.Len < 16*nvram.WordSize {
		return nil, errors.New("bwtree: mapping region too small")
	}

	t := &Tree{
		dev:        cfg.Pool.Device(),
		pool:       cfg.Pool,
		alloc:      cfg.Allocator,
		smo:        cfg.SMO,
		mapping:    cfg.Mapping,
		nLPID:      cfg.Mapping.Len / nvram.WordSize,
		nextLPID:   cfg.Mapping.Base,
		leafCap:    cfg.LeafCapacity,
		innerCap:   cfg.InnerCapacity,
		consolAt:   cfg.ConsolidateAfter,
		mergeBelow: cfg.MergeBelow,
	}
	RegisterRecoveryCallbacks(t.pool)
	if _, err := cfg.Pool.OpenAnchors([]nvram.Offset{t.nextLPID, t.mappingOff(RootLPID)}, t.create); err != nil {
		return nil, fmt.Errorf("bwtree: %w", err)
	}
	return t, nil
}

// create builds one empty leaf as the root page and publishes the tree
// with one PMwCAS, {nextLPID: 0→RootLPID+1, mapping[root]: 0→page}. The
// page is handed to the root mapping word's entry, so the descriptor
// owns it until the PMwCAS commits: a lost race or a crash frees it
// (§5.2), and the tree stays absent.
func (t *Tree) create(h *core.Handle) error {
	d, err := h.AllocateDescriptor(0)
	if err != nil {
		return err
	}
	root := owner{d, t.mappingOff(RootLPID), 0, core.PolicyFreeNewOnFailure}
	if _, err := buildBase(t, t.alloc.NewHandle(), recBaseLeaf, nil, 0, MaxKey, 0, root); err != nil {
		d.Discard()
		return err
	}
	if err := d.AddWord(t.nextLPID, 0, RootLPID+1); err != nil {
		d.Discard()
		return err
	}
	_, err = d.Execute()
	return err
}

// mappingOff returns the mapping-table word for an LPID.
func (t *Tree) mappingOff(lpid uint64) nvram.Offset {
	if lpid == 0 || lpid >= t.nLPID {
		panic(fmt.Sprintf("bwtree: LPID %d out of range", lpid))
	}
	return t.mapping.Base + lpid*nvram.WordSize
}

// allocLPID durably claims a fresh LPID. An LPID claimed by an SMO that
// later fails is abandoned — mapping slots are one word, and a fixed,
// slowly growing leak bound is a deliberate trade for never reusing an
// LPID (reuse would expose traversals to ABA on mapping words).
func (t *Tree) allocLPID() (uint64, error) {
	for {
		//lint:allow guardfact — nextLPID is mapping word 0, never reclaimed; epoch guards protect arena memory, not the allocation counter
		cur := core.PCASRead(t.dev, t.nextLPID)
		if cur >= t.nLPID {
			return 0, ErrMappingFull
		}
		if core.PCASFlush(t.dev, t.nextLPID, cur, cur+1) {
			return cur, nil
		}
	}
}

// Handle is one goroutine's access context.
type Handle struct {
	tree *Tree
	core *core.Handle
	ah   *alloc.Handle
	lane metrics.Stripe

	// Reused scratch, so the point-op fast paths stay allocation-free
	// (//pmwcas:hotpath): pathBuf backs descend's ancestor stack;
	// decided, routes and routed are resolve's working sets, and
	// viewRing backs the pages it returns, round-robin. A pageView's
	// entries are valid only until viewRingSize further resolve calls on
	// the same handle. descend searches pages in place and resolves
	// nothing; maintenance and Scan resolve, and the most views any path
	// holds at once is merge's four. parentBuf holds the routes of the
	// parent an SMO rewrites.
	pathBuf   []pathEntry
	decided   []decided
	routes    []route
	routed    []Entry
	viewRing  [viewRingSize][]Entry
	viewIdx   int
	parentBuf []Entry
}

// viewRingSize bounds how many pageViews resolved through one handle are
// live at once (power of two for cheap wrap-around). The deepest holder
// is merge: maintain's view plus parent, left, and right.
const viewRingSize = 8

// NewHandle creates a per-goroutine handle.
func (t *Tree) NewHandle() *Handle {
	return &Handle{
		tree: t, core: t.pool.NewHandle(), ah: t.alloc.NewHandle(), lane: metrics.NextStripe(),
		pathBuf: make([]pathEntry, 0, maxDescentDepth),
	}
}

// Guard exposes the handle's epoch guard (index.Owner): hold it across
// reading a value and dereferencing the block it names.
func (h *Handle) Guard() *epoch.Guard { return h.core.Guard() }

// readMapping reads a mapping word under the caller's guard, helping any
// in-flight PMwCAS in descriptor modes. The baseline branch masks the
// flag bits even though plain-CAS publishes never set them: callers
// compare and re-store the returned word, and the mask keeps that
// contract mode-independent.
//
//pmwcas:requires-guard — mapping words address epoch-reclaimed pages
func (h *Handle) readMapping(lpid uint64) uint64 {
	if h.tree.smo == SMOSingleCAS {
		//lint:allow rawload — baseline mode publishes mappings with plain CAS; there is no dirty bit to observe
		return h.tree.dev.Load(h.tree.mappingOff(lpid)) &^ core.FlagsMask
	}
	return h.core.Read(h.tree.mappingOff(lpid))
}

// checkKey and checkValue return bare sentinels: both run first thing
// in every point op on the //pmwcas:hotpath proof, where wrapping the
// offending value with fmt.Errorf would allocate.
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
