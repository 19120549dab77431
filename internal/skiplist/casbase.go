package skiplist

import (
	"math/rand"
	"sync/atomic"

	"pmwcas/internal/alloc"
	"pmwcas/internal/epoch"
	"pmwcas/internal/nvram"
)

// This file implements the volatile, single-word-CAS baseline the paper
// measures PMwCAS against (§6.1, §7): a Harris-style lock-free skip list
// made doubly-linked "the hard way" — next pointers are authoritative and
// maintained with marked CAS; prev pointers are maintained by best-effort
// CAS fix-ups after the fact and must be *validated* (and repaired by
// re-searching) whenever a reverse traversal uses them.
//
// Compare the amount of race-handling code here with the PMwCAS version
// in ops.go: the two-phase deletion (logical mark, then physical unlink
// with helping in every traversal), the fix-up/validation machinery for
// prev pointers, and the restart paths are exactly the complexity the
// paper reports eliminating. This implementation exists so benchmarks
// can quantify what that simplicity costs — the paper's answer: 1-3%.
//
// CASList is volatile only: it never flushes, and it has no recovery
// story (a crash loses the structure) — which is the other half of the
// paper's argument.

// CASList is the single-word-CAS baseline skip list.
type CASList struct {
	dev   *nvram.Device
	alloc *alloc.Allocator
	mgr   *epoch.Manager
	head  nvram.Offset
	tail  nvram.Offset
	top   atomic.Int32 // as List.top: a descent starts at level top-1
}

// NewCAS builds a fresh baseline list. It shares the node layout and the
// allocator with the PMwCAS list so benchmark comparisons measure the
// algorithm, not the substrate.
func NewCAS(dev *nvram.Device, a *alloc.Allocator, mgr *epoch.Manager) (*CASList, error) {
	l := &CASList{dev: dev, alloc: a, mgr: mgr}
	if mgr == nil {
		l.mgr = epoch.NewManager()
	}
	ah := a.NewHandle()
	var err error
	if l.head, err = ah.Reserve(nodeSize(MaxHeight)); err != nil {
		return nil, err
	}
	if l.tail, err = ah.Reserve(nodeSize(MaxHeight)); err != nil {
		a.Unreserve(l.head)
		return nil, err
	}
	dev.Store(l.head+nodeKeyOff, 0)
	dev.Store(l.tail+nodeKeyOff, MaxKey)
	for _, n := range [2]nvram.Offset{l.head, l.tail} {
		dev.Store(n+nodeValueOff, 0)
		dev.Store(n+nodeMetaOff, MaxHeight)
	}
	for i := 0; i < MaxHeight; i++ {
		dev.Store(l.head+linkOff(i, false), l.tail)
		dev.Store(l.head+linkOff(i, true), 0)
		dev.Store(l.tail+linkOff(i, false), 0)
		dev.Store(l.tail+linkOff(i, true), l.head)
	}
	// The allocator's crash-safe ownership order is pointless for a
	// volatile structure; activate into the reserved first device line
	// (offset 8), which no layout ever hands out.
	ah.Activate(l.head, nvram.WordSize)
	ah.Activate(l.tail, nvram.WordSize)
	l.top.Store(1)
	return l, nil
}

// CASHandle is a per-goroutine context for the baseline list.
type CASHandle struct {
	list  *CASList
	guard *epoch.Guard
	ah    *alloc.Handle
	rng   *rand.Rand
}

// NewHandle creates a per-goroutine handle.
func (l *CASList) NewHandle(seed int64) *CASHandle {
	return &CASHandle{
		list:  l,
		guard: l.mgr.Register(),
		ah:    l.alloc.NewHandle(),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

func (h *CASHandle) randomHeight() int {
	height := 1
	for height < MaxHeight && h.rng.Intn(promoteP) == 0 {
		height++
	}
	return height
}

// casSearch locates pred/succ at every level with one top-down descent,
// physically unlinking any logically deleted (marked) node it passes —
// Harris's helping rule: a marked node must be unlinked by whoever trips
// over it, otherwise deletion never completes. Any interference with the
// descent restarts it from the head. Like find, it loads each node's key
// once per descent: succ and sk are the node the level above stopped at
// and its key, and it starts at level top-1.
func (l *CASList) casSearch(key uint64) (r casSearchResult) {
retry:
	pred := l.head
	succ, sk := l.tail, MaxKey
	top := int(l.top.Load())
	for level := top; level < MaxHeight; level++ {
		r.preds[level], r.succs[level] = l.head, l.tail
	}
	for level := top - 1; level >= 0; level-- {
		cur := l.dev.Load(pred + linkOff(level, false))
		for {
			if cur&DeletedMask != 0 || cur == 0 {
				goto retry // pred got deleted (or sealed) underfoot
			}
			next := l.dev.Load(cur + linkOff(level, false))
			for next&DeletedMask != 0 {
				// cur is logically deleted: help unlink it, then re-read.
				if !l.dev.CAS(pred+linkOff(level, false), cur, next&^DeletedMask) {
					goto retry
				}
				// Best-effort prev repair on the survivor.
				l.fixPrev(level, pred, next&^DeletedMask)
				cur = next &^ DeletedMask
				if cur == 0 {
					goto retry
				}
				next = l.dev.Load(cur + linkOff(level, false))
			}
			ck := sk
			if cur != succ {
				ck = l.key(cur)
			}
			if ck < key {
				pred = cur
				cur = next
				continue
			}
			r.preds[level], r.succs[level] = pred, cur
			succ, sk = cur, ck
			break
		}
		// Descend within the same predecessor tower (fat nodes: the node
		// linked at this level is linked at every level below).
	}
	return r
}

type casSearchResult struct {
	preds [MaxHeight]nvram.Offset
	succs [MaxHeight]nvram.Offset
}

func (l *CASList) key(n nvram.Offset) uint64 { return l.dev.Load(n + nodeKeyOff) }

// fixPrev repairs succ.prev[level] to point at pred, but only while the
// forward link actually agrees — prev is a hint here, never truth.
func (l *CASList) fixPrev(level int, pred, succ nvram.Offset) {
	for i := 0; i < 3; i++ { // bounded retries; it's only a hint
		cur := l.dev.Load(succ + linkOff(level, true))
		if cur == pred {
			return
		}
		if l.dev.Load(pred+linkOff(level, false)) != succ {
			return // no longer adjacent; someone else will fix it
		}
		if l.dev.CAS(succ+linkOff(level, true), cur, pred) {
			return
		}
	}
}

// Insert adds key/value using only single-word CAS.
//
//pmwcas:hotpath — CAS-skiplist point insert; the paper's per-op cost model admits descriptor traffic only, no heap garbage
func (h *CASHandle) Insert(key, value uint64) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if err := checkValue(value); err != nil {
		return err
	}
	l := h.list
	h.guard.Enter()
	defer h.guard.Exit()

	height := h.randomHeight()
	var node nvram.Offset

	// Base level: the node becomes visible here.
	for {
		r := l.casSearch(key)
		pred, succ := r.preds[0], r.succs[0]
		if succ != l.tail && l.key(succ) == key {
			if node != 0 {
				_ = l.alloc.Free(node) // lost to a concurrent insert of the same key
			}
			return ErrKeyExists
		}
		if node == 0 {
			var err error
			if node, err = h.ah.Reserve(nodeSize(height)); err != nil {
				return err
			}
			l.dev.Store(node+nodeKeyOff, key)
			l.dev.Store(node+nodeValueOff, value)
			l.dev.Store(node+nodeMetaOff, uint64(height))
			for level := 1; level < height; level++ {
				l.dev.Store(node+linkOff(level, false), 0)
				l.dev.Store(node+linkOff(level, true), 0)
			}
			// Volatile list: activate into the reserved scratch word.
			h.ah.Activate(node, nvram.WordSize)
		}
		l.dev.Store(node+linkOff(0, false), succ)
		l.dev.Store(node+linkOff(0, true), pred)
		if l.dev.CAS(pred+linkOff(0, false), succ, node) {
			l.fixPrev(0, node, succ)
			break
		}
	}

	// Lazy promotion, one CAS per level, with the full complement of
	// deleted-underfoot checks. The node's own next word is updated with
	// CAS, never a plain store: a concurrent deleter seals unpromoted
	// levels by marking the zero word, and that seal must win races.
	for level := 1; level < height; level++ {
		// Raised before the search below, so the search walks this level.
		raiseTop(&l.top, level+1)
		cur := l.dev.Load(node + linkOff(level, false)) // 0 until promoted
		for {
			if cur&DeletedMask != 0 {
				return nil // sealed or marked: deletion owns the node
			}
			if l.dev.Load(node+linkOff(0, false))&DeletedMask != 0 {
				return nil // deleted while promoting; stop
			}
			r := l.casSearch(key)
			pred, succ := r.preds[level], r.succs[level]
			if succ != l.tail && l.key(succ) == key && succ != node {
				return nil // deleted and re-inserted by someone else
			}
			if !l.dev.CAS(node+linkOff(level, false), cur, succ) {
				cur = l.dev.Load(node + linkOff(level, false))
				continue
			}
			cur = succ
			l.dev.Store(node+linkOff(level, true), pred)
			if l.dev.CAS(pred+linkOff(level, false), succ, node) {
				l.fixPrev(level, node, succ)
				// A deleter may have marked this level between our two
				// CASes and already finished its physical pass — in which
				// case we just linked a dying node and must unlink it
				// ourselves. (One of the subtle races PMwCAS eliminates.)
				if l.dev.Load(node+linkOff(level, false))&DeletedMask != 0 {
					l.casSearch(key) // unlink what we just linked
					return nil
				}
				break
			}
		}
	}
	return nil
}

// Get returns the value stored under key.
//
//pmwcas:hotpath — CAS-skiplist point lookup; the paper's per-op cost model admits descriptor traffic only, no heap garbage
func (h *CASHandle) Get(key uint64) (uint64, error) {
	if err := checkKey(key); err != nil {
		return 0, err
	}
	l := h.list
	h.guard.Enter()
	defer h.guard.Exit()
	succ := l.casSearch(key).succs[0]
	if succ == l.tail || l.key(succ) != key {
		return 0, ErrNotFound
	}
	if l.dev.Load(succ+linkOff(0, false))&DeletedMask != 0 {
		return 0, ErrNotFound
	}
	return l.dev.Load(succ + nodeValueOff), nil
}

// Contains reports whether key is present.
func (h *CASHandle) Contains(key uint64) bool {
	_, err := h.Get(key)
	return err == nil
}

// Update replaces the value under key (plain CAS loop on the value word).
//
//pmwcas:hotpath — CAS-skiplist point update; the paper's per-op cost model admits descriptor traffic only, no heap garbage
func (h *CASHandle) Update(key, value uint64) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if err := checkValue(value); err != nil {
		return err
	}
	l := h.list
	h.guard.Enter()
	defer h.guard.Exit()
	for {
		succ := l.casSearch(key).succs[0]
		if succ == l.tail || l.key(succ) != key {
			return ErrNotFound
		}
		if l.dev.Load(succ+linkOff(0, false))&DeletedMask != 0 {
			return ErrNotFound
		}
		old := l.dev.Load(succ + nodeValueOff)
		if l.dev.CAS(succ+nodeValueOff, old, value) {
			return nil
		}
	}
}

// Delete removes key: the classic two-phase Harris deletion per level —
// logically mark the next pointer, then physically unlink via casFind's
// helping — followed by epoch-deferred reclamation once every level is
// confirmed unlinked.
//
//pmwcas:hotpath — CAS-skiplist point delete; the paper's per-op cost model admits descriptor traffic only, no heap garbage
func (h *CASHandle) Delete(key uint64) error {
	if err := checkKey(key); err != nil {
		return err
	}
	l := h.list
	h.guard.Enter()
	defer h.guard.Exit()

	node := l.casSearch(key).succs[0]
	if node == l.tail || l.key(node) != key {
		return ErrNotFound
	}
	height := int(l.dev.Load(node + nodeMetaOff))

	// Phase 1 (logical): mark every level, top-down — including sealing
	// unpromoted (zero) levels so no promotion can land after the node
	// dies. Only the thread that marks the base owns the deletion.
	for level := height - 1; level >= 1; level-- {
		for {
			next := l.dev.Load(node + linkOff(level, false))
			if next&DeletedMask != 0 {
				break
			}
			if l.dev.CAS(node+linkOff(level, false), next, next|DeletedMask) {
				break
			}
		}
	}
	owned := false
	for {
		next := l.dev.Load(node + linkOff(0, false))
		if next&DeletedMask != 0 {
			break // someone else owns it
		}
		if l.dev.CAS(node+linkOff(0, false), next, next|DeletedMask) {
			owned = true
			break
		}
	}
	if !owned {
		return ErrNotFound
	}

	// Phase 2 (physical): the search descent unlinks marked nodes as a
	// side effect.
	l.casSearch(key)

	// Reclaim once no traversal can hold the node; DeferRetire also paces
	// the epoch clock. It records the list (an existing interface value)
	// plus the offset instead of heap-allocating a capturing closure per
	// delete.
	l.mgr.DeferRetire(l, uint64(node), 0)
	return nil
}

// RetireRun implements epoch.Retiree: it frees a run of logically
// deleted nodes once their epochs expire, in one batch. The method form
// keeps deferred reclamation closure-free (see epoch.DeferRetire).
func (l *CASList) RetireRun(nodes, _ []uint64) { _ = l.alloc.FreeManyWithBarrier(nodes, nil) }

// Scan visits keys in [from, to] ascending. fn runs under the scan's
// epoch guard and must not block.
func (h *CASHandle) Scan(from, to uint64, fn func(Entry) bool) error {
	if err := checkKey(from); err != nil {
		return err
	}
	l := h.list
	h.guard.Enter()
	defer h.guard.Exit()
	cur := l.casSearch(from).succs[0]
	for cur != l.tail {
		k := l.key(cur)
		if k > to {
			break
		}
		next := l.dev.Load(cur + linkOff(0, false))
		if next&DeletedMask == 0 { // skip logically deleted nodes
			//lint:allow nonblock — user visitor runs under the scan guard by documented contract; it must not block (§6.3)
			if !fn(Entry{Key: k, Value: l.dev.Load(cur + nodeValueOff)}) {
				return nil
			}
		}
		cur = next &^ DeletedMask
	}
	return nil
}

// ScanReverse visits keys in [from, to] descending; fn runs under the
// scan's epoch guard and must not block. This is where the
// baseline pays: every prev hop must be validated against the forward
// list and repaired by a fresh search when stale.
func (h *CASHandle) ScanReverse(from, to uint64, fn func(Entry) bool) error {
	if err := checkKey(from); err != nil {
		return err
	}
	l := h.list
	h.guard.Enter()
	defer h.guard.Exit()

	var cur nvram.Offset
	if to >= MaxKey {
		cur = l.tail
	} else {
		cur = l.casSearch(to + 1).succs[0]
	}
	for {
		prev := l.dev.Load(cur + linkOff(0, true))
		// Validate the hint: prev must be alive and actually point at cur.
		if prev == 0 ||
			l.dev.Load(prev+linkOff(0, false))&DeletedMask != 0 ||
			l.dev.Load(prev+linkOff(0, false)) != cur {
			// Stale: recompute the true predecessor the expensive way.
			k := l.key(cur)
			if cur == l.tail {
				k = MaxKey
			}
			prev = l.casSearch(k).preds[0]
			l.fixPrev(0, prev, cur)
		}
		if prev == l.head {
			return nil
		}
		k := l.key(prev)
		if k < from {
			return nil
		}
		if k <= to {
			//lint:allow nonblock — user visitor runs under the scan guard by documented contract; it must not block (§6.3)
			if !fn(Entry{Key: k, Value: l.dev.Load(prev + nodeValueOff)}) {
				return nil
			}
		}
		cur = prev
	}
}

// Range returns entries in [from, to] ascending.
func (h *CASHandle) Range(from, to uint64) ([]Entry, error) {
	var out []Entry
	err := h.Scan(from, to, func(e Entry) bool { out = append(out, e); return true })
	return out, err
}

// RangeReverse returns entries in [from, to] descending.
func (h *CASHandle) RangeReverse(from, to uint64) ([]Entry, error) {
	var out []Entry
	err := h.ScanReverse(from, to, func(e Entry) bool { out = append(out, e); return true })
	return out, err
}
