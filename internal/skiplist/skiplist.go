// Package skiplist implements the paper's first case study (§6.1): a
// lock-free, doubly-linked skip list built on PMwCAS, supporting forward
// and reverse range scans, with a CAS-only volatile baseline for
// comparison (casbase.go).
//
// # Structure
//
// A node is one NVRAM block holding the key, the value, the tower height,
// and height pairs of (next, prev) links — the node participates in one
// doubly-linked list per level. All links are arena offsets.
//
// Every mutation is a single PMwCAS, so the list steps atomically from
// one consistent state to the next (the paper's requirement for free
// recovery, §2.3):
//
//   - base insert:    {pred.next[0]: succ→n, succ.prev[0]: pred→n}
//   - promotion to i: {pred.next[i]: succ→n, succ.prev[i]: pred→n,
//     n.next[i]: 0→succ, n.prev[i]: 0→pred}
//   - level-i delete: {n.next[i]: succ→succ|mark, pred.next[i]: n→succ,
//     succ.prev[i]: n→pred}
//   - base delete:    level-0 triple as above, plus one compare/mark word
//     per upper level asserting that level is dead (0 or
//     marked) and sealing it against promotion.
//
// The deleted mark lives in bit 60 of a node's own next word, below the
// three bits PMwCAS reserves. Because mark-and-unlink is one atomic
// operation, a marked node is never reachable through the list — there is
// no "help finish the deletion" path, which is exactly the code the paper
// reports deleting when moving from single-word CAS to PMwCAS.
//
// # Why towers cannot be orphaned
//
// Deletion proceeds top-down and the base-level PMwCAS includes every
// upper next word, expecting it dead and marking it. A racing promotion
// of level i expects n.next[i] == 0. Both operations target the same
// word, so they serialize: if the promotion commits first, the deleter
// observes the link and unlinks level i before retrying the base; if the
// base delete commits first, the promotion's expected value fails. The
// node's memory is released only by the base delete, at which point every
// level is provably unlinked — a dangling upper-level link is impossible,
// even across a crash.
package skiplist

import (
	"errors"
	"fmt"
	"math/rand"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/epoch"
	"pmwcas/internal/index"
	"pmwcas/internal/metrics"
	"pmwcas/internal/nvram"
)

// DeletedMask is the logical-deletion mark in a node's next words. It is
// bit 60: inside the payload PMwCAS preserves, above any valid arena
// offset.
const DeletedMask uint64 = 1 << 60

// MaxKey is the largest user key; key 0 and MaxKey are the head and tail
// sentinels.
const MaxKey = DeletedMask - 1

// MaxHeight is the tallest tower supported. A base delete needs
// 3 + (MaxHeight-1) descriptor words, plus one more when DeleteValue
// pins the value word, so the pool backing the list must have
// WordsPerDescriptor >= 3 + MaxHeight.
const MaxHeight = 12

// MinDescriptorWords is the descriptor capacity the list requires.
const MinDescriptorWords = 3 + MaxHeight

// promoteP is the per-level promotion probability (p = 1/4): level i
// carries an expected n/4^i keys, so MaxHeight covers ~16M keys.
const promoteP = 4

// Node field offsets.
const (
	nodeKeyOff   = 0
	nodeValueOff = 8
	nodeMetaOff  = 16 // height
	nodeLinksOff = 24 // next[i] at +16i, prev[i] at +16i+8
	linkStride   = 16
)

// nodeSize returns the byte size of a node of the given height.
func nodeSize(height int) uint64 {
	return uint64(nodeLinksOff + height*linkStride)
}

// RootWords is the number of durable root words a list needs: head and
// tail anchors plus two staging words used only during first
// initialization (all four must share one cache line so creation can be
// published atomically).
const RootWords = 4

var (
	// ErrKeyExists and ErrNotFound are the shared index sentinels.
	ErrKeyExists = index.ErrKeyExists
	ErrNotFound  = index.ErrNotFound
	// ErrKeyRange is returned for keys outside (0, MaxKey).
	ErrKeyRange = errors.New("skiplist: key out of range")
	// ErrValueRange is returned for values with reserved bits set.
	ErrValueRange = errors.New("skiplist: value out of range")
)

// List is a persistent doubly-linked skip list. All methods are safe for
// concurrent use through per-goroutine Handles.
type List struct {
	dev   *nvram.Device
	pool  *core.Pool
	alloc *alloc.Allocator
	roots nvram.Region // two words: head, tail
	head  nvram.Offset
	tail  nvram.Offset
}

// Config wires a List to its substrates.
type Config struct {
	Pool      *core.Pool       // descriptor pool (WordsPerDescriptor >= MinDescriptorWords)
	Allocator *alloc.Allocator // node storage
	Roots     nvram.Region     // at least RootWords durable words, stable across restarts
}

// New opens the list anchored at cfg.Roots, creating the sentinel towers
// on first use. Reopening after a crash requires allocator and pool
// recovery to have run first; the list itself needs no recovery logic of
// its own — that is the point of the paper.
func New(cfg Config) (*List, error) {
	if cfg.Pool == nil || cfg.Allocator == nil {
		return nil, errors.New("skiplist: Pool and Allocator are required")
	}
	if cfg.Pool.WordsPerDescriptor() < MinDescriptorWords {
		return nil, fmt.Errorf("skiplist: pool descriptors hold %d words, need %d",
			cfg.Pool.WordsPerDescriptor(), MinDescriptorWords)
	}
	if cfg.Roots.Len < RootWords*nvram.WordSize {
		return nil, fmt.Errorf("skiplist: roots region too small (%d bytes)", cfg.Roots.Len)
	}
	l := &List{
		dev:   cfg.Pool.Device(),
		pool:  cfg.Pool,
		alloc: cfg.Allocator,
		roots: cfg.Roots,
	}
	headRoot := cfg.Roots.Base
	tailRoot := cfg.Roots.Base + nvram.WordSize
	stagedHead := cfg.Roots.Base + 2*nvram.WordSize
	stagedTail := cfg.Roots.Base + 3*nvram.WordSize

	l.head = l.dev.Load(headRoot)
	l.tail = l.dev.Load(tailRoot)
	sh := l.dev.Load(stagedHead)
	st := l.dev.Load(stagedTail)
	if l.head != 0 && l.tail != 0 {
		// Existing list. Nonzero staging words mean the crash hit inside
		// the publish window after opportunistic eviction persisted the
		// anchor line mid-update; the staged words then still alias the
		// sentinels (New had not returned, so no operation ran). Scrub
		// them; anything else is corruption.
		if sh != 0 || st != 0 {
			if (sh != 0 && sh != l.head) || (st != 0 && st != l.tail) {
				return nil, errors.New("skiplist: staging words disagree with anchors — image corrupt")
			}
			l.dev.Store(stagedHead, 0)
			l.dev.Store(stagedTail, 0)
			l.dev.Flush(stagedHead)
			l.dev.Fence()
		}
		return l, nil // existing list
	}
	if l.head != 0 || l.tail != 0 {
		// One anchor persisted, the other not: an eviction-persisted
		// prefix of the publish stores. The staged words still own the
		// sentinels, so reset the anchors and rebuild through the staging
		// path below. A lone anchor the staging words do not corroborate
		// is genuine corruption.
		if (l.head != 0 && l.head != sh) || (l.tail != 0 && l.tail != st) {
			return nil, errors.New("skiplist: torn roots — allocator recovery must run before New")
		}
		l.dev.Store(headRoot, 0)
		l.dev.Store(tailRoot, 0)
		l.dev.Flush(headRoot)
		l.dev.Fence()
		l.head, l.tail = 0, 0
	}

	// Fresh list: build the sentinel towers via staged-then-published
	// creation. The sentinels are delivered into staging words that share
	// the anchors' cache line, fully initialized and persisted, and only
	// then published: one store set + line flush moves both anchors from
	// zero to their sentinels and clears the staging words atomically. A
	// crash anywhere before that flush leaves the anchors durably zero —
	// the list simply does not exist yet — and the staged blocks are
	// released here on the next open, so first initialization can be
	// retried at any crash point without reformatting.
	for _, st := range []nvram.Offset{stagedHead, stagedTail} {
		if b := l.dev.Load(st); b != 0 {
			staged := st
			if err := cfg.Allocator.FreeWithBarrier(b, func() {
				l.dev.Store(staged, 0)
				l.dev.Flush(staged)
			}); err != nil {
				return nil, fmt.Errorf("skiplist: releasing staged sentinel %#x: %w", b, err)
			}
		}
	}
	ah := cfg.Allocator.NewHandle()
	var err error
	l.head, err = ah.Alloc(nodeSize(MaxHeight), stagedHead)
	if err != nil {
		return nil, fmt.Errorf("skiplist: allocating head sentinel: %w", err)
	}
	l.tail, err = ah.Alloc(nodeSize(MaxHeight), stagedTail)
	if err != nil {
		return nil, fmt.Errorf("skiplist: allocating tail sentinel: %w", err)
	}
	l.dev.Store(l.head+nodeKeyOff, 0)
	l.dev.Store(l.tail+nodeKeyOff, MaxKey)
	l.dev.Store(l.head+nodeMetaOff, MaxHeight)
	l.dev.Store(l.tail+nodeMetaOff, MaxHeight)
	for i := 0; i < MaxHeight; i++ {
		l.dev.Store(l.head+linkOff(i, false), l.tail) // head.next[i] = tail
		l.dev.Store(l.tail+linkOff(i, true), l.head)  // tail.prev[i] = head
	}
	l.flushNode(l.head, MaxHeight)
	l.flushNode(l.tail, MaxHeight)
	l.dev.Fence()
	// Publish: anchors set, staging cleared, in one atomic line flush.
	l.dev.Store(headRoot, l.head)
	l.dev.Store(tailRoot, l.tail)
	l.dev.Store(stagedHead, 0)
	l.dev.Store(stagedTail, 0)
	l.dev.Flush(headRoot)
	l.dev.Fence()
	return l, nil
}

// linkOff returns the byte offset of next[i] (prev=false) or prev[i]
// within a node.
func linkOff(level int, prev bool) uint64 {
	o := uint64(nodeLinksOff + level*linkStride)
	if prev {
		o += nvram.WordSize
	}
	return o
}

// flushNode persists a node's lines (no-op cost in volatile pools is the
// device's concern; the list always flushes so the same code serves both
// modes, as in the paper).
func (l *List) flushNode(n nvram.Offset, height int) {
	if l.pool.Mode() != core.Persistent {
		return
	}
	for off := n; off < n+nodeSize(height); off += nvram.LineBytes {
		l.dev.Flush(off)
	}
}

// key reads a node's key. Keys are immutable after initialization and
// flushed before publication, so a plain load suffices.
func (l *List) key(n nvram.Offset) uint64 { return l.dev.Load(n + nodeKeyOff) }

// height reads a node's immutable tower height.
func (l *List) height(n nvram.Offset) int { return int(l.dev.Load(n + nodeMetaOff)) }

// A Handle is one goroutine's access context: PMwCAS handle, allocation
// handle, and the RNG for tower heights.
type Handle struct {
	list *List
	core *core.Handle
	ah   *alloc.Handle
	rng  *rand.Rand
	lane metrics.Stripe
}

// Traversal-shape instruments (DRAM-only): find steps are the link hops
// one locate pays, restarts count marked-link collisions with deleters.
var (
	mFindSteps    = metrics.NewHistogram("skiplist_find_steps")
	mFindRestarts = metrics.NewCounter("skiplist_find_restarts")
)

// NewHandle creates a per-goroutine handle. seed differentiates tower
// height streams; any value works.
func (l *List) NewHandle(seed int64) *Handle {
	return &Handle{
		list: l,
		core: l.pool.NewHandle(),
		ah:   l.alloc.NewHandle(),
		rng:  rand.New(rand.NewSource(seed)),
		lane: metrics.NextStripe(),
	}
}

// read is pmwcas_read on a list word under the handle's (already entered)
// guard.
func (h *Handle) read(addr nvram.Offset) uint64 { return h.core.Read(addr) }

// Guard exposes the handle's epoch guard. Layered stores that keep
// out-of-line value records must hold it across "look up value, then
// dereference it" windows, or a concurrent update could recycle the
// record mid-read.
func (h *Handle) Guard() *epoch.Guard { return h.core.Guard() }

// randomHeight draws a tower height with P(h > i) = promoteP^-i.
func (h *Handle) randomHeight() int {
	height := 1
	for height < MaxHeight && h.rng.Intn(promoteP) == 0 {
		height++
	}
	return height
}

// findResult carries the per-level predecessor/successor pairs around a
// key, plus the base-level match if any.
type findResult struct {
	preds [MaxHeight]nvram.Offset
	succs [MaxHeight]nvram.Offset
	found nvram.Offset // node with exactly the key at the base level, or 0
}

// find locates key's neighborhood at every level. If it encounters a
// marked link (its predecessor was deleted underfoot) it restarts from
// the head — deletion unlinks atomically, so marked links are only ever
// seen from nodes the traversal was already holding.
//
// Link reads elide the dirty-bit flush (DESIGN.md §6.2): the values are
// only compared, followed, or handed to AddWord as expected-old operands,
// which the PMwCAS install path re-persists at the target before
// acquiring it. Writers that copy successors into new node links flush
// the node and fence before publishing.
//
//pmwcas:requires-guard — walks links into nodes the epoch may reclaim
//pmwcas:traversal — link values navigate only; publishes go through AddWord
func (h *Handle) find(key uint64) findResult {
	l := h.list
	steps := int64(0)
restart:
	var r findResult
	pred := l.head
	for i := MaxHeight - 1; i >= 0; i-- {
		for {
			steps++
			next := h.core.ReadTraverse(pred + linkOff(i, false))
			if next&DeletedMask != 0 {
				mFindRestarts.Inc(h.lane)
				goto restart
			}
			if next == 0 {
				// pred is not linked at this level; cannot happen for the
				// traversal path (we only descend through linked levels).
				goto restart
			}
			if nk := l.key(next); nk < key {
				pred = next
				continue
			}
			r.preds[i] = pred
			r.succs[i] = next
			break
		}
	}
	if s := r.succs[0]; s != l.tail && l.key(s) == key {
		r.found = s
	}
	mFindSteps.Observe(h.lane, steps)
	return r
}

// checkKey validates a user key. It returns the bare sentinel: the %#x
// wrapping it once carried cost an Errorf allocation on every point op,
// and callers match with errors.Is, never the message.
func checkKey(key uint64) error {
	if key == 0 || key >= MaxKey {
		return ErrKeyRange
	}
	return nil
}

// checkValue validates a user value (bits 60..63 are reserved).
func checkValue(v uint64) error {
	if v&(core.FlagsMask|DeletedMask) != 0 {
		return ErrValueRange
	}
	return nil
}
