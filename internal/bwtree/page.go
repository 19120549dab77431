package bwtree

import (
	"fmt"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/index"
	"pmwcas/internal/nvram"
)

// Page and delta record layouts. Every record starts with the same
// two-word header; records are immutable after publication, so plain
// loads are safe for any record reached through a mapping word.
//
//	+0  meta: type | chainLen<<8 | count<<24
//	+8  next: arena offset of the next record in the chain (0 for bases)
//
// Base pages (leaf and inner) continue with fences and sorted entries:
//
//	+16 lowKey   — exclusive lower fence
//	+24 highKey  — inclusive upper fence
//	+32 side     — right sibling LPID (0 for the rightmost page)
//	+40 entries  — count x (key, payload) pairs, sorted by key
//
// For a leaf the payload is the value; for an inner page the payload is
// the child LPID and the entry's key is the child's inclusive upper
// fence (so routing is "first entry with key >= target").
//
// Delta records (prepended by updates and SMOs):
//
//	insert/delete/update: +16 key, +24 value
//	split:                +16 sep, +24 sibling LPID
//	index-entry:          +16 low, +24 mid, +32 high, +40 left, +48 right
//	                      (keys in (low,mid] -> left, (mid,high] -> right)
//	index-delete:         +16 low, +24 high, +32 child
//	removed:              no payload — the page merged away; restart
const (
	recMetaOff = 0
	recNextOff = 8

	baseLowOff     = 16
	baseHighOff    = 24
	baseSideOff    = 32
	baseEntriesOff = 40
	entrySize      = 16

	deltaKeyOff = 16
	deltaValOff = 24

	splitSepOff     = 16
	splitSiblingOff = 24

	idxLowOff   = 16
	idxMidOff   = 24
	idxHighOff  = 32
	idxLeftOff  = 40
	idxRightOff = 48

	idxDelLowOff   = 16
	idxDelHighOff  = 24
	idxDelChildOff = 32
)

// Record types.
const (
	recBaseLeaf uint64 = iota + 1
	recBaseInner
	recInsert
	recDelete
	recUpdate
	recSplit
	recIndexEntry
	recIndexDelete
	recRemoved
)

func metaWord(typ uint64, chain int, count int) uint64 {
	return typ | uint64(chain)<<8 | uint64(count)<<24
}

func (t *Tree) recType(rec nvram.Offset) uint64 { return t.dev.Load(rec+recMetaOff) & 0xff }
func (t *Tree) recChain(rec nvram.Offset) int   { return int(t.dev.Load(rec+recMetaOff) >> 8 & 0xffff) }
func (t *Tree) recCount(rec nvram.Offset) int   { return int(t.dev.Load(rec+recMetaOff) >> 24) }
func (t *Tree) recNext(rec nvram.Offset) uint64 { return t.dev.Load(rec + recNextOff) }
func (t *Tree) entryOff(rec nvram.Offset, i int) nvram.Offset {
	return rec + baseEntriesOff + uint64(i)*entrySize
}

// flushRecord persists a freshly built record before publication. In
// volatile pools this is free.
func (t *Tree) flushRecord(rec nvram.Offset, size uint64) {
	if t.pool.Mode() != core.Persistent {
		return
	}
	for off := rec; off < rec+size; off += nvram.LineBytes {
		t.dev.Flush(off)
	}
	t.dev.Fence()
}

// Entry is a key/value pair in a leaf.
type Entry = index.Entry

// InnerEntry routes keys at or below Key to Child.
type InnerEntry struct {
	Key   uint64
	Child uint64
}

// pageView is the logical content of one page, resolved from its delta
// chain under the caller's epoch guard.
type pageView struct {
	head   nvram.Offset // chain head this view was resolved from
	base   nvram.Offset // the base record at the chain's end
	isLeaf bool
	chain  int // number of deltas above the base

	low, high uint64
	side      uint64 // right sibling LPID (possibly updated by a split delta)

	// Split information pending in the chain, if any: keys above
	// splitSep have moved to splitSibling; preSplitHigh is the page's
	// upper fence before the split (needed by baseline help-along).
	hasSplit     bool
	splitSep     uint64
	splitSibling uint64
	preSplitHigh uint64

	removed bool // page was merged away

	leafEntries  []Entry      // resolved leaf content (sorted), nil for inner
	innerEntries []InnerEntry // resolved inner content (sorted), nil for leaf
}

// leafSearch returns the first index i with es[i].Key >= key (or > key
// when excl). Hand-rolled because sort.Search's func-value argument is a
// closure the compiler heap-allocates at every call, and these searches
// sit inside resolve's delta replay on the //pmwcas:hotpath proof.
func leafSearch(es []Entry, key uint64, excl bool) int {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k := es[mid].Key; k < key || (excl && k == key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// innerSearch is leafSearch over routing entries.
func innerSearch(es []InnerEntry, key uint64, excl bool) int {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k := es[mid].Key; k < key || (excl && k == key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// resolve materializes the logical view of a chain. It walks the chain
// once, collecting deltas, then replays them oldest-first over the base.
// O(chain + count); chains are kept short by consolidation.
func (h *Handle) resolve(head uint64) pageView {
	t := h.tree
	v := pageView{head: nvram.Offset(head)}
	// Materialize into the handle's ring scratch (see Handle.viewRing):
	// resolve runs on every level of every descend, so per-call makes
	// here would dominate the point ops' allocation profile.
	b := &h.viewRing[h.viewIdx&(viewRingSize-1)]
	h.viewIdx++
	deltas := b.deltas[:0]
	rec := nvram.Offset(head)
	for {
		typ := t.recType(rec)
		if typ == recBaseLeaf || typ == recBaseInner {
			v.base = rec
			v.isLeaf = typ == recBaseLeaf
			break
		}
		if typ == recRemoved {
			v.removed = true
			return v
		}
		deltas = append(deltas, rec)
		rec = nvram.Offset(t.recNext(rec))
	}
	b.deltas = deltas
	v.chain = len(deltas)
	v.low = t.dev.Load(v.base + baseLowOff)
	v.high = t.dev.Load(v.base + baseHighOff)
	v.side = t.dev.Load(v.base + baseSideOff)

	n := t.recCount(v.base)
	if v.isLeaf {
		// Upper bound on growth: each delta adds at most one entry, so
		// replay can never outgrow the reservation and reallocate.
		if cap(b.leaf) < n+len(deltas) {
			b.leaf = make([]Entry, 0, n+len(deltas))
		}
		v.leafEntries = b.leaf[:0]
		for i := 0; i < n; i++ {
			e := t.entryOff(v.base, i)
			v.leafEntries = append(v.leafEntries, Entry{Key: t.dev.Load(e), Value: t.dev.Load(e + 8)})
		}
	} else {
		if cap(b.inner) < n+2*len(deltas) {
			b.inner = make([]InnerEntry, 0, n+2*len(deltas))
		}
		v.innerEntries = b.inner[:0]
		for i := 0; i < n; i++ {
			e := t.entryOff(v.base, i)
			v.innerEntries = append(v.innerEntries, InnerEntry{t.dev.Load(e), t.dev.Load(e + 8)})
		}
	}

	// Replay deltas oldest-first (they were prepended, so iterate the
	// collected slice backwards).
	for i := len(deltas) - 1; i >= 0; i-- {
		d := deltas[i]
		switch t.recType(d) {
		case recInsert, recUpdate:
			v.applyLeafPut(t.dev.Load(d+deltaKeyOff), t.dev.Load(d+deltaValOff))
		case recDelete:
			v.applyLeafDelete(t.dev.Load(d + deltaKeyOff))
		case recSplit:
			sep := t.dev.Load(d + splitSepOff)
			sib := t.dev.Load(d + splitSiblingOff)
			v.applySplit(sep, sib)
		case recIndexEntry:
			v.applyIndexEntry(
				t.dev.Load(d+idxLowOff), t.dev.Load(d+idxMidOff), t.dev.Load(d+idxHighOff),
				t.dev.Load(d+idxLeftOff), t.dev.Load(d+idxRightOff))
		case recIndexDelete:
			v.applyIndexDelete(
				t.dev.Load(d+idxDelLowOff), t.dev.Load(d+idxDelHighOff), t.dev.Load(d+idxDelChildOff))
		default:
			panic(fmt.Sprintf("bwtree: delta %#x has corrupt type %d", d, t.recType(d)))
		}
	}
	return v
}

// applyLeafPut inserts or replaces a key in the resolved view.
func (v *pageView) applyLeafPut(key, val uint64) {
	i := leafSearch(v.leafEntries, key, false)
	if i < len(v.leafEntries) && v.leafEntries[i].Key == key {
		v.leafEntries[i].Value = val
		return
	}
	v.leafEntries = append(v.leafEntries, Entry{})
	copy(v.leafEntries[i+1:], v.leafEntries[i:])
	v.leafEntries[i] = Entry{Key: key, Value: val}
}

func (v *pageView) applyLeafDelete(key uint64) {
	i := leafSearch(v.leafEntries, key, false)
	if i < len(v.leafEntries) && v.leafEntries[i].Key == key {
		v.leafEntries = append(v.leafEntries[:i], v.leafEntries[i+1:]...)
	}
}

// applySplit truncates the view at the separator: keys above sep now
// live at the sibling.
func (v *pageView) applySplit(sep, sibling uint64) {
	v.hasSplit, v.splitSep, v.splitSibling = true, sep, sibling
	v.preSplitHigh = v.high
	if v.isLeaf {
		i := leafSearch(v.leafEntries, sep, true)
		v.leafEntries = v.leafEntries[:i]
	} else {
		i := innerSearch(v.innerEntries, sep, true)
		v.innerEntries = v.innerEntries[:i]
	}
	v.high = sep
	v.side = sibling
}

// applyIndexEntry splits the routing entry covering (low, high]: keys in
// (low, mid] go left, (mid, high] go right. The low bound is carried in
// the delta for layout fidelity with the paper's (Kp, Kq) description
// but is implied by the preceding entry during replay.
func (v *pageView) applyIndexEntry(_, mid, high, left, right uint64) {
	i := innerSearch(v.innerEntries, high, false)
	if i == len(v.innerEntries) || v.innerEntries[i].Key != high {
		// The covered entry is gone (e.g., truncated by a later split
		// replay); the delta is a no-op for this view.
		return
	}
	v.innerEntries[i].Child = right
	v.innerEntries = append(v.innerEntries, InnerEntry{})
	copy(v.innerEntries[i+1:], v.innerEntries[i:])
	v.innerEntries[i] = InnerEntry{mid, left}
}

// applyIndexDelete collapses all routing entries in (low, high] into one
// entry high -> child (page merge at the parent).
func (v *pageView) applyIndexDelete(low, high, child uint64) {
	lo := innerSearch(v.innerEntries, low, true)
	hi := innerSearch(v.innerEntries, high, false)
	if hi == len(v.innerEntries) || v.innerEntries[hi].Key != high {
		return
	}
	v.innerEntries[hi].Child = child
	v.innerEntries = append(v.innerEntries[:lo], v.innerEntries[hi:]...)
}

// route returns the child LPID covering key in an inner view.
func (v *pageView) route(key uint64) (uint64, bool) {
	i := innerSearch(v.innerEntries, key, false)
	if i == len(v.innerEntries) {
		return 0, false
	}
	return v.innerEntries[i].Child, true
}

// get looks a key up in a leaf view.
func (v *pageView) get(key uint64) (uint64, bool) {
	i := leafSearch(v.leafEntries, key, false)
	if i < len(v.leafEntries) && v.leafEntries[i].Key == key {
		return v.leafEntries[i].Value, true
	}
	return 0, false
}

// ---- record builders -------------------------------------------------
//
// Builders allocate, fill, and flush records but do not publish them.
// When the caller installs via PMwCAS ReserveEntry, the allocation is
// delivered into the descriptor (crash-owned); in SMOSingleCAS mode the
// caller frees explicitly on failure.

func leafSize(n int) uint64  { return baseEntriesOff + uint64(n)*entrySize }
func innerSize(n int) uint64 { return leafSize(n) }

// buildLeaf writes a leaf base page and returns its offset. target is
// where the allocator delivers the block (a descriptor new-value field,
// or a scratch word in volatile contexts).
func buildLeaf(t *Tree, ah *alloc.Handle, entries []Entry, low, high, side uint64) (nvram.Offset, error) {
	return buildLeafInto(t, ah, entries, low, high, side, nvram.WordSize)
}

func buildLeafInto(t *Tree, ah *alloc.Handle, entries []Entry, low, high, side uint64, target nvram.Offset) (nvram.Offset, error) {
	page, err := ah.Alloc(leafSize(len(entries)), target)
	if err != nil {
		return 0, err
	}
	t.dev.Store(page+recMetaOff, metaWord(recBaseLeaf, 0, len(entries)))
	t.dev.Store(page+recNextOff, 0)
	t.dev.Store(page+baseLowOff, low)
	t.dev.Store(page+baseHighOff, high)
	t.dev.Store(page+baseSideOff, side)
	for i, e := range entries {
		t.dev.Store(t.entryOff(page, i), e.Key)
		t.dev.Store(t.entryOff(page, i)+8, e.Value)
	}
	t.flushRecord(page, leafSize(len(entries)))
	return page, nil
}

func buildInnerInto(t *Tree, ah *alloc.Handle, entries []InnerEntry, low, high, side uint64, target nvram.Offset) (nvram.Offset, error) {
	page, err := ah.Alloc(innerSize(len(entries)), target)
	if err != nil {
		return 0, err
	}
	t.dev.Store(page+recMetaOff, metaWord(recBaseInner, 0, len(entries)))
	t.dev.Store(page+recNextOff, 0)
	t.dev.Store(page+baseLowOff, low)
	t.dev.Store(page+baseHighOff, high)
	t.dev.Store(page+baseSideOff, side)
	for i, e := range entries {
		t.dev.Store(t.entryOff(page, i), e.Key)
		t.dev.Store(t.entryOff(page, i)+8, e.Child)
	}
	t.flushRecord(page, innerSize(len(entries)))
	return page, nil
}

const deltaSize = 64 // all delta records fit one cache line

// buildLeafDelta writes an insert/update/delete delta over next.
func buildLeafDelta(t *Tree, ah *alloc.Handle, typ uint64, key, val, next uint64, chain int, target nvram.Offset) (nvram.Offset, error) {
	d, err := ah.Alloc(deltaSize, target)
	if err != nil {
		return 0, err
	}
	t.dev.Store(d+recMetaOff, metaWord(typ, chain, 0))
	t.dev.Store(d+recNextOff, next)
	t.dev.Store(d+deltaKeyOff, key)
	t.dev.Store(d+deltaValOff, val)
	t.flushRecord(d, deltaSize)
	return d, nil
}

func buildSplitDelta(t *Tree, ah *alloc.Handle, sep, sibling, next uint64, chain int, target nvram.Offset) (nvram.Offset, error) {
	d, err := ah.Alloc(deltaSize, target)
	if err != nil {
		return 0, err
	}
	t.dev.Store(d+recMetaOff, metaWord(recSplit, chain, 0))
	t.dev.Store(d+recNextOff, next)
	t.dev.Store(d+splitSepOff, sep)
	t.dev.Store(d+splitSiblingOff, sibling)
	t.flushRecord(d, deltaSize)
	return d, nil
}

func buildIndexEntryDelta(t *Tree, ah *alloc.Handle, low, mid, high, left, right, next uint64, chain int, target nvram.Offset) (nvram.Offset, error) {
	d, err := ah.Alloc(deltaSize, target)
	if err != nil {
		return 0, err
	}
	t.dev.Store(d+recMetaOff, metaWord(recIndexEntry, chain, 0))
	t.dev.Store(d+recNextOff, next)
	t.dev.Store(d+idxLowOff, low)
	t.dev.Store(d+idxMidOff, mid)
	t.dev.Store(d+idxHighOff, high)
	t.dev.Store(d+idxLeftOff, left)
	t.dev.Store(d+idxRightOff, right)
	t.flushRecord(d, deltaSize)
	return d, nil
}

func buildIndexDeleteDelta(t *Tree, ah *alloc.Handle, low, high, child, next uint64, chain int, target nvram.Offset) (nvram.Offset, error) {
	d, err := ah.Alloc(deltaSize, target)
	if err != nil {
		return 0, err
	}
	t.dev.Store(d+recMetaOff, metaWord(recIndexDelete, chain, 0))
	t.dev.Store(d+recNextOff, next)
	t.dev.Store(d+idxDelLowOff, low)
	t.dev.Store(d+idxDelHighOff, high)
	t.dev.Store(d+idxDelChildOff, child)
	t.flushRecord(d, deltaSize)
	return d, nil
}

func buildRemovedMarker(t *Tree, ah *alloc.Handle, target nvram.Offset) (nvram.Offset, error) {
	d, err := ah.Alloc(deltaSize, target)
	if err != nil {
		return 0, err
	}
	t.dev.Store(d+recMetaOff, metaWord(recRemoved, 0, 0))
	t.dev.Store(d+recNextOff, 0)
	t.flushRecord(d, deltaSize)
	return d, nil
}

// chainBlocks returns every record offset in a chain, head first, for
// bulk freeing after consolidation or merge.
func (t *Tree) chainBlocks(head uint64) []nvram.Offset {
	var out []nvram.Offset
	rec := nvram.Offset(head)
	for rec != 0 {
		out = append(out, rec)
		typ := t.recType(rec)
		if typ == recBaseLeaf || typ == recBaseInner || typ == recRemoved {
			break
		}
		rec = nvram.Offset(t.recNext(rec))
	}
	return out
}

// freeChain releases every record in a chain.
func (t *Tree) freeChain(head uint64) {
	for _, rec := range t.chainBlocks(head) {
		_ = t.alloc.Free(rec)
	}
}
