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
//	insert/delete/update: +16 key, +24 value, +32 the owned value it
//	                      displaces (written by owned writes only)
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

	deltaKeyOff   = 16
	deltaValOff   = 24
	deltaOwnedOff = 32

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

func (t *Tree) recChain(rec nvram.Offset) int { return int(t.dev.Load(rec+recMetaOff) >> 8 & 0xffff) }
func (t *Tree) entryOff(rec nvram.Offset, i int) nvram.Offset {
	return rec + baseEntriesOff + uint64(i)*entrySize
}

// Entry is a key/value pair in a leaf. An inner page's routing entry has
// the same shape: the child's inclusive upper fence and the child LPID.
type Entry = index.Entry

// pageHdr is what one walk of a chain learns about its page, whatever
// the reader wants from it.
type pageHdr struct {
	head    nvram.Offset
	chain   int // deltas above the base, from the head's meta word
	isLeaf  bool
	removed bool // page was merged away: restart

	low, high uint64 // high is a pending split's separator, if any
	side      uint64 // right sibling LPID (the split sibling, if any)
	baseHigh  uint64 // the base's upper fence; above high iff a split is pending

	base  nvram.Offset // the base page
	count int          // its entry count
}

// walker visits one chain newest-first, loading each record's meta word
// once. It applies the rules every reader of a page shares: the newest
// split delta sets the upper fence and the side link, and the walk ends
// at the base page (kind, fences, entries) or at a removed marker. next
// stops at each delta that names keys, for the reader to judge; for any
// key, the first such record that names it decides (a leaf delta for
// the key, an index delta whose range holds it), else the base does.
// A lean walk leaves the base's low and side words unloaded: search
// decides on the upper fence alone, and sibling loads the side link
// only for a key past it.
type walker struct {
	pageHdr
	t     *Tree
	rec   nvram.Offset
	split bool
	lean  bool
}

func (t *Tree) walk(head uint64) walker {
	return walker{pageHdr: pageHdr{head: nvram.Offset(head)}, t: t, rec: nvram.Offset(head)}
}

// next returns the next leaf or index delta and its type, or type 0
// once the walk is over and pageHdr is complete.
func (w *walker) next() (nvram.Offset, uint64) {
	dev := w.t.dev
	for {
		rec := w.rec
		meta := dev.Load(rec + recMetaOff)
		if rec == w.head {
			w.chain = int(meta >> 8 & 0xffff)
		}
		switch typ := meta & 0xff; typ {
		case recInsert, recUpdate, recDelete, recIndexEntry, recIndexDelete:
			w.rec = nvram.Offset(dev.Load(rec + recNextOff))
			return rec, typ
		case recSplit:
			if !w.split {
				w.split = true
				w.high, w.side = dev.Load(rec+splitSepOff), dev.Load(rec+splitSiblingOff)
			}
			w.rec = nvram.Offset(dev.Load(rec + recNextOff))
		case recBaseLeaf, recBaseInner:
			w.isLeaf, w.base, w.count = typ == recBaseLeaf, rec, int(meta>>24)
			w.baseHigh = dev.Load(rec + baseHighOff)
			if !w.split {
				w.high = w.baseHigh
			}
			if !w.lean {
				w.low = dev.Load(rec + baseLowOff)
				if !w.split {
					w.side = dev.Load(rec + baseSideOff)
				}
			}
			return 0, 0
		case recRemoved:
			w.removed = true
			return 0, 0
		default:
			panic(fmt.Sprintf("bwtree: record %#x has corrupt type %d", rec, typ))
		}
	}
}

// pageHit is one key's answer from one page, read in place by search:
// the page's header, less the base's low and side words (see sibling),
// and, when key is within its fences, the key's value (leaf) or the
// child that routes it (inner).
type pageHit struct {
	pageHdr
	found bool
	val   uint64 // leaf value or inner child LPID
}

// search answers a point lookup or a routing step on the chain at head
// without materialising the page: the first delta that names key
// decides, else a binary search of the base's sorted entries does.
// O(chain + log n) loads, none of them on a word the answer does not
// use.
func (t *Tree) search(head, key uint64) pageHit {
	var s pageHit
	decided := false
	w := t.walk(head)
	w.lean = true
	for rec, typ := w.next(); typ != 0; rec, typ = w.next() {
		if decided {
			continue
		}
		switch typ {
		case recIndexEntry:
			if key > t.dev.Load(rec+idxLowOff) && key <= t.dev.Load(rec+idxHighOff) {
				child := rec + idxRightOff
				if key <= t.dev.Load(rec+idxMidOff) {
					child = rec + idxLeftOff
				}
				decided, s.found, s.val = true, true, t.dev.Load(child)
			}
		case recIndexDelete:
			if key > t.dev.Load(rec+idxDelLowOff) && key <= t.dev.Load(rec+idxDelHighOff) {
				decided, s.found, s.val = true, true, t.dev.Load(rec+idxDelChildOff)
			}
		default:
			if t.dev.Load(rec+deltaKeyOff) == key {
				decided, s.found = true, typ != recDelete
				if s.found {
					s.val = t.dev.Load(rec + deltaValOff)
				}
			}
		}
	}
	s.pageHdr = w.pageHdr
	if decided || s.removed {
		return s
	}
	// First entry with key >= the target; at is that entry's key.
	lo, hi, at := 0, s.count, uint64(0)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k := t.dev.Load(t.entryOff(s.base, mid)); k < key {
			lo = mid + 1
		} else {
			hi, at = mid, k
		}
	}
	if lo < s.count && (!s.isLeaf || at == key) {
		s.found, s.val = true, t.dev.Load(t.entryOff(s.base, lo)+8)
	}
	return s
}

// sibling returns a searched page's right sibling: the pending split's,
// or else the base's side link, loaded only now that a key has passed
// the page's upper fence.
func (t *Tree) sibling(s *pageHit) uint64 {
	if s.high < s.baseHigh {
		return s.side
	}
	return t.dev.Load(s.base + baseSideOff)
}

// pageView is the whole logical content of one page, read by resolve
// under the caller's epoch guard.
type pageView struct {
	pageHdr
	entries []Entry // in key order, all within (low, high]
}

// decided is the newest leaf delta for one key (resolve's scratch).
type decided struct {
	key uint64
	rec nvram.Offset
	del bool
}

// route is one index delta and the range it routes (resolve's scratch).
type route struct {
	low, high uint64
	rec       nvram.Offset
	typ       uint64
}

// resolve reads a page's whole content. One walk collects what the
// chain decides: the newest leaf delta for each key, kept in key order,
// or each index delta's range. One merge with the base's sorted entries
// then yields the page in key order. A base entry survives unless a
// delta decides its key, and nothing above the page's upper fence
// survives. Nothing is replayed, so the cost is O(n + chain·log chain)
// loads with no shifting of the page's entries.
//
// The entries live in the handle's view ring (Handle.viewRing): they are
// valid until viewRingSize further resolve calls on the same handle.
func (h *Handle) resolve(head uint64) pageView {
	t := h.tree
	ks, rs := h.decided[:0], h.routes[:0]
	w := t.walk(head)
	for rec, typ := w.next(); typ != 0; rec, typ = w.next() {
		switch typ {
		case recIndexEntry:
			rs = append(rs, route{t.dev.Load(rec + idxLowOff), t.dev.Load(rec + idxHighOff), rec, typ})
		case recIndexDelete:
			rs = append(rs, route{t.dev.Load(rec + idxDelLowOff), t.dev.Load(rec + idxDelHighOff), rec, typ})
		default:
			// Insert in key order unless a newer delta decided the key.
			k := t.dev.Load(rec + deltaKeyOff)
			lo, hi := 0, len(ks)
			for lo < hi {
				if mid := int(uint(lo+hi) >> 1); ks[mid].key < k {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < len(ks) && ks[lo].key == k {
				continue
			}
			ks = append(ks, decided{})
			copy(ks[lo+1:], ks[lo:])
			ks[lo] = decided{k, rec, typ == recDelete}
		}
	}
	h.decided, h.routes = ks, rs
	v := pageView{pageHdr: w.pageHdr}
	if v.removed {
		return v
	}
	i := h.viewIdx & (viewRingSize - 1)
	h.viewIdx++
	if n := v.count + len(ks) + 2*len(rs); cap(h.viewRing[i]) < n {
		h.viewRing[i] = make([]Entry, 0, n)
	}
	if v.isLeaf {
		v.entries = t.mergeLeaf(h.viewRing[i][:0], &v.pageHdr, ks)
	} else {
		v.entries = h.mergeInner(h.viewRing[i][:0], &v.pageHdr, rs)
	}
	return v
}

// mergeLeaf merges a leaf's base entries with its decided keys.
func (t *Tree) mergeLeaf(out []Entry, p *pageHdr, ks []decided) []Entry {
	j := 0
	for i := 0; i < p.count; i++ {
		e := t.entryOff(p.base, i)
		k := t.dev.Load(e)
		if k > p.high {
			break
		}
		for ; j < len(ks) && ks[j].key < k; j++ {
			out = t.appendDecided(out, ks[j])
		}
		if j < len(ks) && ks[j].key == k {
			out = t.appendDecided(out, ks[j])
			j++
			continue
		}
		out = append(out, Entry{Key: k, Value: t.dev.Load(e + 8)})
	}
	for ; j < len(ks) && ks[j].key <= p.high; j++ {
		out = t.appendDecided(out, ks[j])
	}
	return out
}

func (t *Tree) appendDecided(out []Entry, d decided) []Entry {
	if !d.del {
		out = append(out, Entry{Key: d.key, Value: t.dev.Load(d.rec + deltaValOff)})
	}
	return out
}

// mergeInner merges an inner page's base entries with the routing
// entries of its index deltas. A routing entry's key is the upper end of
// the range it routes, and it survives unless a newer index delta's
// range holds that key. (A delta's range is a union of whole routing
// ranges of the page it was posted to, so it covers a range entirely or
// not at all.)
func (h *Handle) mergeInner(out []Entry, p *pageHdr, rs []route) []Entry {
	t := h.tree
	ds := h.routed[:0]
	for i, r := range rs {
		if r.typ == recIndexDelete {
			ds = addRoute(ds, rs[:i], p.high, r.high, t.dev.Load(r.rec+idxDelChildOff))
			continue
		}
		ds = addRoute(ds, rs[:i], p.high, t.dev.Load(r.rec+idxMidOff), t.dev.Load(r.rec+idxLeftOff))
		ds = addRoute(ds, rs[:i], p.high, r.high, t.dev.Load(r.rec+idxRightOff))
	}
	h.routed = ds
	j := 0
	for i := 0; i < p.count; i++ {
		e := t.entryOff(p.base, i)
		k := t.dev.Load(e)
		if k > p.high {
			break
		}
		if covered(rs, k) {
			continue
		}
		for ; j < len(ds) && ds[j].Key < k; j++ {
			out = append(out, ds[j])
		}
		out = append(out, Entry{Key: k, Value: t.dev.Load(e + 8)})
	}
	for ; j < len(ds); j++ {
		out = append(out, ds[j])
	}
	return out
}

// addRoute inserts the routing entry (key, child) into ds in key order,
// unless key is past the page's fence or a newer delta's range holds it.
func addRoute(ds []Entry, newer []route, high, key, child uint64) []Entry {
	if key > high || covered(newer, key) {
		return ds
	}
	i := len(ds)
	for i > 0 && ds[i-1].Key > key {
		i--
	}
	ds = append(ds, Entry{})
	copy(ds[i+1:], ds[i:])
	ds[i] = Entry{Key: key, Value: child}
	return ds
}

// covered reports whether key lies in the range of one of rs.
func covered(rs []route, key uint64) bool {
	for _, r := range rs {
		if key > r.low && key <= r.high {
			return true
		}
	}
	return false
}

// ---- record builders -------------------------------------------------
//
// Builders reserve a record, fill it, and hand it to its owner, but do not
// publish it. The owner is a descriptor entry on the mapping word the
// caller installs the record into (ReserveEntry: the descriptor frees it
// if the PMwCAS fails or a crash interrupts it), or, in SMOSingleCAS mode,
// the scratch word (Activate), and the caller frees the record explicitly
// on failure.

// owner names who takes a built record: the entry {addr: old→record} of
// descriptor d under policy, or, with d nil, the scratch word.
type owner struct {
	d      *core.Descriptor
	addr   nvram.Offset
	old    uint64
	policy core.Policy
}

func baseSize(n int) uint64 { return baseEntriesOff + uint64(n)*entrySize }

// buildBase builds a base page (recBaseLeaf or recBaseInner) for to and
// returns its offset.
func buildBase(t *Tree, ah *alloc.Handle, typ uint64, entries []Entry, low, high, side uint64, to owner) (nvram.Offset, error) {
	page, err := ah.Reserve(baseSize(len(entries)))
	if err != nil {
		return 0, err
	}
	t.dev.Store(page+recMetaOff, metaWord(typ, 0, len(entries)))
	t.dev.Store(page+baseLowOff, low)
	t.dev.Store(page+baseHighOff, high)
	t.dev.Store(page+baseSideOff, side)
	for i, e := range entries {
		t.dev.Store(t.entryOff(page, i), e.Key)
		t.dev.Store(t.entryOff(page, i)+8, e.Value)
	}
	if to.d == nil {
		ah.Activate(page, scratchWord)
		return page, nil
	}
	return page, to.d.ReserveEntry(to.addr, to.old, page, to.policy)
}

// buildPage builds v's entries [from, to) as a base page of v's kind
// under the given fences: the whole page (consolidation) or one half of
// it (a split).
func buildPage(t *Tree, ah *alloc.Handle, v *pageView, from, to int, low, high, side uint64, o owner) (nvram.Offset, error) {
	typ := recBaseInner
	if v.isLeaf {
		typ = recBaseLeaf
	}
	return buildBase(t, ah, typ, v.entries[from:to], low, high, side, o)
}

const deltaSize = 64 // all delta records fit one cache line

// buildDelta builds a delta record of type typ over next for to: the
// header, then the first n words of body from +16 on (the layouts above).
func buildDelta(t *Tree, ah *alloc.Handle, typ, next uint64, chain int, body [5]uint64, n int, to owner) (nvram.Offset, error) {
	d, err := ah.Reserve(deltaSize)
	if err != nil {
		return 0, err
	}
	t.dev.Store(d+recMetaOff, metaWord(typ, chain, 0))
	t.dev.Store(d+recNextOff, next)
	for i := 0; i < n; i++ {
		t.dev.Store(d+deltaKeyOff+uint64(i)*nvram.WordSize, body[i])
	}
	if to.d == nil {
		ah.Activate(d, scratchWord)
		return d, nil
	}
	return d, to.d.ReserveEntry(to.addr, to.old, d, to.policy)
}
