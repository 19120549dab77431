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
//   - update:         {n.value: v→v′}
//   - promotion to i: {pred.next[i]: succ→n, succ.prev[i]: pred→n,
//     n.next[i]: 0→succ, n.prev[i]: 0→pred}
//   - level-i delete: {n.next[i]: succ→succ|mark, pred.next[i]: n→succ,
//     succ.prev[i]: n→pred}, plus, below the top of the tower, a
//     compare/mark word asserting level i+1 dead (0 or marked) and
//     sealing it against promotion.
//   - base delete:    level-0 triple as above, plus one compare/mark word
//     per upper level asserting that level is dead (0 or
//     marked) and sealing it against promotion, plus {n.value: v→v|mark}.
//
// The deleted mark is bit 60 of a node's next words and value word, below
// the three bits PMwCAS reserves. Mark-and-unlink is one atomic operation,
// so a marked node is never reachable — there is no "help finish the
// deletion" path, the code the paper reports deleting when moving from
// single-word CAS to PMwCAS — and an update that read the value before a
// delete fails on the mark, so it needs no other word.
//
// Every operation descends from the head once (find), from List.top, a
// DRAM bound above every linked level, not from MaxHeight. An insert's
// promotions and a delete's unlinks act on the pred/succ pairs of that
// find: each pair is an expected-old operand its PMwCAS re-validates, so
// a pair gone stale only loses the PMwCAS, and only then does the op
// find again.
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
//
// Towers also stay prefix-contiguous: a node linked at level i is linked
// at every level below. A level-i delete marks level i+1 dead in the same
// PMwCAS, so a promotion of level i+1 either lands first (and the delete,
// finding it live, unlinks it before level i) or fails on the seal.
// Without that seal, a promotion could land above a level a concurrent
// delete had just unlinked, and every find through the node would meet
// the marked link below and restart for ever.
package skiplist

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/epoch"
	"pmwcas/internal/index"
	"pmwcas/internal/metrics"
	"pmwcas/internal/nvram"
)

// DeletedMask is the logical-deletion mark in a node's next words and
// its value word. It is bit 60: inside the payload PMwCAS preserves,
// above any valid arena offset, and refused in user values.
const DeletedMask uint64 = 1 << 60

// MaxKey is the largest user key; key 0 and MaxKey are the head and tail
// sentinels.
const MaxKey = DeletedMask - 1

// MaxHeight is the tallest tower supported. A base delete needs
// 3 + (MaxHeight-1) + 1 descriptor words: the level-0 triple, a seal per
// upper level and the value word's mark. So the pool backing the list
// must have WordsPerDescriptor >= 3 + MaxHeight.
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

// RootWords is the number of durable root words a list needs: the head
// and tail anchors.
const RootWords = 2

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
	// top exceeds every linked level: a descent starts at top-1. A DRAM
	// hint that may be high, never low: promote raises it before its
	// PMwCAS, New recomputes it, nothing lowers it.
	top atomic.Int32
}

// Config wires a List to its substrates.
type Config struct {
	Pool      *core.Pool       // descriptor pool (WordsPerDescriptor >= MinDescriptorWords)
	Allocator *alloc.Allocator // node storage
	Roots     nvram.Region     // at least RootWords durable words, stable across restarts
}

// New opens the list anchored at cfg.Roots, creating the sentinel towers
// on first use with one PMwCAS (core.Pool.OpenAnchors). Reopening after
// a crash requires allocator and pool recovery to have run first; the
// list itself needs no recovery logic of its own — that is the point of
// the paper.
//
// One List per roots: while a List is in use, no second List may be
// opened over its roots, because each keeps its own top and a List never
// sees the levels another promoted above its top (the store opens one per
// shard and hands it to every caller).
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
	a, err := cfg.Pool.OpenAnchors([]nvram.Offset{cfg.Roots.Base, cfg.Roots.Base + nvram.WordSize}, l.create)
	if err != nil {
		return nil, fmt.Errorf("skiplist: %w", err)
	}
	l.head, l.tail = nvram.Offset(a[0]), nvram.Offset(a[1])
	// The highest level the head links to a node is the tallest tower's.
	ch := cfg.Pool.NewHandle()
	ch.Guard().Enter()
	top := MaxHeight
	for top > 1 && nvram.Offset(ch.Read(l.head+linkOff(top-1, false))) == l.tail {
		top--
	}
	ch.Guard().Exit()
	cfg.Pool.Epochs().Unregister(ch.Guard())
	l.top.Store(int32(top))
	return l, nil
}

// raiseTop makes every later descent start at level levels-1 or above.
func raiseTop(top *atomic.Int32, levels int) {
	for t := top.Load(); int(t) < levels && !top.CompareAndSwap(t, int32(levels)); t = top.Load() {
	}
}

// create builds the sentinel towers and publishes them with one PMwCAS,
// {head: 0→H, tail: 0→T}. Each tower is filled, then handed to its
// anchor's entry, so the descriptor owns it until the PMwCAS commits: a
// lost race or a crash frees it (§5.2), and the anchors stay zero.
func (l *List) create(h *core.Handle) error {
	ah := l.alloc.NewHandle()
	d, err := h.AllocateDescriptor(0)
	if err != nil {
		return err
	}
	head, err := ah.Reserve(nodeSize(MaxHeight))
	if err != nil {
		d.Discard()
		return err
	}
	tail, err := ah.Reserve(nodeSize(MaxHeight))
	if err != nil {
		l.alloc.Unreserve(head)
		d.Discard()
		return err
	}
	l.dev.Store(head+nodeKeyOff, 0)
	l.dev.Store(tail+nodeKeyOff, MaxKey)
	for _, n := range [2]nvram.Offset{head, tail} {
		l.dev.Store(n+nodeValueOff, 0)
		l.dev.Store(n+nodeMetaOff, MaxHeight)
	}
	for i := 0; i < MaxHeight; i++ {
		l.dev.Store(head+linkOff(i, false), tail) // head.next[i] = tail
		l.dev.Store(head+linkOff(i, true), 0)
		l.dev.Store(tail+linkOff(i, false), 0)
		l.dev.Store(tail+linkOff(i, true), head) // tail.prev[i] = head
	}
	if err = d.ReserveEntry(l.roots.Base, 0, head, core.PolicyFreeNewOnFailure); err != nil {
		l.alloc.Unreserve(tail)
	} else {
		err = d.ReserveEntry(l.roots.Base+nvram.WordSize, 0, tail, core.PolicyFreeNewOnFailure)
	}
	if err != nil {
		d.Discard()
		return err
	}
	_, err = d.Execute()
	return err
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
// Each node's key is loaded once per descent. succ and sk are the node
// the level above stopped at and its key: a level down, the walk stops
// at succ again unless it meets a smaller key first, and a node it
// passes becomes pred, never compared again. Keys are immutable once
// published and the guard keeps succ from being recycled, so reusing sk
// is the same read. succ starts at the tail, whose key is MaxKey, so
// empty top levels load no key, and the base level's succ and sk answer
// whether key is present. The walk starts at level top-1; above it, each
// pair is (head, tail) unloaded, stale only as any find's pair can be.
//
// find keeps its guard across restarts, for a caller that holds a node
// found earlier; a caller that holds nothing uses seek.
//
//pmwcas:requires-guard — walks links into nodes the epoch may reclaim
func (h *Handle) find(key uint64) findResult { return h.descend(key, false) }

// seek is find for a caller that holds no node across the descent (Get,
// a scan's first positioning). Before each restart it repins its guard
// to the current epoch, so a reader that restarts again and again under
// concurrent deletes does not hold back the reclamation that refills the
// descriptor pool those deletes draw on.
//
//pmwcas:requires-guard — walks links into nodes the epoch may reclaim
func (h *Handle) seek(key uint64) findResult { return h.descend(key, true) }

//pmwcas:requires-guard — walks links into nodes the epoch may reclaim
func (h *Handle) descend(key uint64, repin bool) findResult {
	l := h.list
	steps := int64(0)
restart:
	var r findResult
	pred := l.head
	succ, sk := l.tail, MaxKey
	top := int(l.top.Load())
	for i := top; i < MaxHeight; i++ {
		r.preds[i], r.succs[i] = l.head, l.tail
	}
	for i := top - 1; i >= 0; i-- {
		for {
			steps++
			next := h.core.Read(pred + linkOff(i, false))
			if next&DeletedMask != 0 {
				mFindRestarts.Inc(h.lane)
				if repin {
					h.core.Guard().Repin()
				}
				goto restart
			}
			if next == 0 {
				// pred is not linked at this level; cannot happen for the
				// traversal path (we only descend through linked levels).
				goto restart
			}
			nk := sk
			if next != succ {
				nk = l.key(next)
			}
			if nk < key {
				pred = next
				continue
			}
			r.preds[i], r.succs[i] = pred, next
			succ, sk = next, nk
			break
		}
	}
	if succ != l.tail && sk == key {
		r.found = succ
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
