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
	"sync/atomic"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
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
	// Mapping is the mapping-table region; one word per LPID. Must be
	// stable across restarts.
	Mapping nvram.Region
	// Meta holds the tree's durable scalars (next-LPID counter). One
	// cache line suffices.
	Meta nvram.Region
	// SMO selects the structure-modification protocol.
	SMO SMOMode
	// LeafCapacity is the max entries in a leaf base page before it
	// splits (default 64). Min 8.
	LeafCapacity int
	// InnerCapacity is the same bound for inner pages (default 64).
	InnerCapacity int
	// ConsolidateAfter is the delta-chain length that triggers
	// consolidation (default 8).
	ConsolidateAfter int
	// MergeBelow, if > 0, merges a leaf whose consolidated size drops
	// under it (SMOPMwCAS only; default 0 = merging off).
	MergeBelow int
}

// Tree is a lock-free B+-tree over a simulated-NVRAM mapping table.
// Methods are called through per-goroutine Handles.
type Tree struct {
	dev   *nvram.Device
	pool  *core.Pool
	alloc *alloc.Allocator
	smo   SMOMode

	mapping  nvram.Region
	nLPID    uint64
	nextLPID nvram.Offset // durable counter word

	leafCap    int
	innerCap   int
	consolAt   int
	mergeBelow int

	defers atomic.Uint64 // paces epoch collection for SMOSingleCAS frees
}

// deferFree schedules a chain for reclamation and keeps the epoch
// machinery moving. In descriptor modes the pool's retire path does this;
// in SMOSingleCAS mode nothing else would ever advance the epoch, and
// deferred garbage (hence allocator memory) would grow without bound.
func (t *Tree) deferFree(head uint64) {
	mgr := t.pool.Epochs()
	mgr.DeferRetire(t, head, 0)
	mgr.Advance()
	if t.defers.Add(1)%32 == 0 {
		//lint:allow hotpath — amortized epoch sweep, 1 in 32 defers; reclamation callbacks are off the per-op cost model (§6.3)
		mgr.Collect()
	}
}

// Retire implements epoch.Retiree: off is a retired chain head. The tree
// registers itself with DeferRetire instead of a closure so scheduling
// reclamation never heap-allocates (deferFree is on the //pmwcas:hotpath
// proof).
func (t *Tree) Retire(off, _ uint64) { t.freeChain(off) }

// metaMagic marks an initialized tree in the meta region.
const metaMagic = 0x42775472 // "BwTr"

// New opens (or, on a fresh region, creates) a tree. Reopening after a
// crash requires allocator and pool recovery first; the tree itself
// needs no recovery pass of its own.
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
		cfg.LeafCapacity = 64
	}
	if cfg.InnerCapacity == 0 {
		cfg.InnerCapacity = 64
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
	if cfg.Meta.Len < nvram.LineBytes {
		return nil, errors.New("bwtree: meta region too small")
	}

	t := &Tree{
		dev:        cfg.Pool.Device(),
		pool:       cfg.Pool,
		alloc:      cfg.Allocator,
		smo:        cfg.SMO,
		mapping:    cfg.Mapping,
		nLPID:      cfg.Mapping.Len / nvram.WordSize,
		nextLPID:   cfg.Meta.Base + nvram.WordSize,
		leafCap:    cfg.LeafCapacity,
		innerCap:   cfg.InnerCapacity,
		consolAt:   cfg.ConsolidateAfter,
		mergeBelow: cfg.MergeBelow,
	}
	if err := t.registerCallbacks(); err != nil {
		return nil, err
	}

	magicOff := cfg.Meta.Base
	stagedOff := cfg.Meta.Base + 2*nvram.WordSize
	if t.dev.Load(magicOff) == metaMagic {
		// Existing tree. A nonzero staging word means the crash hit inside
		// the publish window after opportunistic eviction persisted the
		// meta line mid-update; the staged word then still aliases the
		// root page (New had not returned, so no operation ran). Scrub it;
		// anything else is corruption.
		if sv := t.dev.Load(stagedOff); sv != 0 {
			//lint:allow rawload, flagmask, guardfact — quiescent first-open scrub: a nonzero staging word proves the crash hit the init publish window, before any PMwCAS ever targeted this mapping word; recovery is single-threaded, so no epoch guard exists yet (§4.4)
			if t.dev.Load(t.mappingOff(RootLPID)) != sv {
				return nil, errors.New("bwtree: staging word disagrees with root mapping — image corrupt")
			}
			t.dev.Store(stagedOff, 0)
			t.dev.Flush(stagedOff)
			t.dev.Fence()
		}
		return t, nil // existing tree
	}

	// Fresh tree: one empty leaf as root, built via staged-then-published
	// creation. The root page is delivered into a staging word on the meta
	// line, the mapping entry is installed, and only then does one line
	// flush publish the magic, the next-LPID counter, and a cleared
	// staging word together. A crash before that flush reads as
	// "uninitialized"; the staged page (and a possibly-set mapping entry
	// pointing at it) is released here on the next open, so first
	// initialization never leaks the root page.
	if b := t.dev.Load(stagedOff); b != 0 {
		if err := cfg.Allocator.FreeWithBarrier(b, func() {
			t.dev.Store(stagedOff, 0)
			t.dev.Flush(stagedOff)
			rootMap := t.mappingOff(RootLPID)
			if t.dev.Load(rootMap) == b {
				t.dev.Store(rootMap, 0)
				t.dev.Flush(rootMap)
			}
		}); err != nil {
			return nil, fmt.Errorf("bwtree: releasing staged root %#x: %w", b, err)
		}
	}
	ah := cfg.Allocator.NewHandle()
	root, err := buildLeafInto(t, ah, nil, 0, MaxKey, 0, stagedOff)
	if err != nil {
		return nil, fmt.Errorf("bwtree: building root: %w", err)
	}
	t.dev.Store(t.mappingOff(RootLPID), root)
	t.dev.Flush(t.mappingOff(RootLPID))
	t.dev.Fence()
	// Publish: magic, next-LPID, and cleared staging word share the meta
	// line, so one flush makes the tree exist atomically.
	t.dev.Store(t.nextLPID, RootLPID+1)
	t.dev.Store(magicOff, metaMagic)
	t.dev.Store(stagedOff, 0)
	t.dev.Flush(magicOff)
	t.dev.Fence()
	return t, nil
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
		//lint:allow guardfact — nextLPID is a fixed meta word, never reclaimed; epoch guards protect arena memory, not the allocation counter
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
	// (//pmwcas:hotpath): pathBuf backs descend's ancestor stack, and
	// viewRing backs resolve's materialized views round-robin. A
	// pageView's entry slices are valid only until viewRingSize further
	// resolve calls on the same handle; no code path holds more than a
	// handful of views (merge holds four), and none holds one across a
	// descend, which resolves once per level.
	pathBuf  []pathEntry
	viewRing [viewRingSize]viewBuf
	viewIdx  int
}

// viewBuf is one reusable set of resolve buffers.
type viewBuf struct {
	deltas []nvram.Offset
	leaf   []Entry
	inner  []InnerEntry
}

// viewRingSize bounds how many pageViews resolved through one handle are
// live at once (power of two for cheap wrap-around). The deepest holder
// is maybeMerge: the caller's view plus parent, left, and right.
const viewRingSize = 16

// NewHandle creates a per-goroutine handle.
func (t *Tree) NewHandle() *Handle {
	return &Handle{
		tree: t, core: t.pool.NewHandle(), ah: t.alloc.NewHandle(), lane: metrics.NextStripe(),
		pathBuf: make([]pathEntry, 0, maxDescentDepth),
	}
}

// readMapping reads a mapping word under the caller's guard, helping any
// in-flight PMwCAS in descriptor modes. The baseline branch masks the
// flag bits even though plain-CAS publishes never set them: callers
// compare and re-store the returned word, and the mask keeps that
// contract mode-independent.
//
// Descriptor-mode reads elide the dirty-bit flush (DESIGN.md §6.2): a
// mapping value is followed to resolve the page chain or handed back to
// a later PMwCAS as the expected-old operand, which the install path
// re-persists at the target. Baseline-mode CAS publishes re-store the
// head word they read, but those stores are themselves validated by the
// CAS succeeding against the durable head.
//
//pmwcas:requires-guard — mapping words address epoch-reclaimed pages
//pmwcas:traversal — mapping values navigate only; publishes go through AddWord or raw CAS validation
func (h *Handle) readMapping(lpid uint64) uint64 {
	if h.tree.smo == SMOSingleCAS {
		//lint:allow rawload — baseline mode publishes mappings with plain CAS; there is no dirty bit to observe
		return h.tree.dev.Load(h.tree.mappingOff(lpid)) &^ core.FlagsMask
	}
	return h.core.ReadTraverse(h.tree.mappingOff(lpid))
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

// Stats describes the tree's physical shape (for tests and tools).
type Stats struct {
	Height     int
	Leaves     int
	Inners     int
	Keys       int
	MaxChain   int
	UsedLPIDs  uint64
	ChainLinks int // total delta records currently live
}

// Stats walks the tree and reports its shape. Intended for quiescent
// moments (tests, tools); concurrent SMOs may skew counts.
func (t *Tree) Stats(h *Handle) Stats {
	var s Stats
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()
	s.UsedLPIDs = core.PCASRead(t.dev, t.nextLPID)
	level := []uint64{RootLPID}
	for len(level) > 0 {
		s.Height++
		var next []uint64
		for _, lpid := range level {
			head := h.readMapping(lpid)
			view := h.resolve(head)
			if view.chain > s.MaxChain {
				s.MaxChain = view.chain
			}
			s.ChainLinks += view.chain
			if view.isLeaf {
				s.Leaves++
				s.Keys += len(view.leafEntries)
			} else {
				s.Inners++
				for _, e := range view.innerEntries {
					next = append(next, e.Child)
				}
			}
		}
		level = next
	}
	return s
}
