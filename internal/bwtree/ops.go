package bwtree

import (
	"errors"

	"pmwcas/internal/core"
	"pmwcas/internal/index"
	"pmwcas/internal/metrics"
)

// Traversal-shape instruments (DRAM-only): descend depth counts mapping
// hops root→leaf (including lateral side-link moves), restarts count
// stale-route retries.
var (
	mDescendDepth    = metrics.NewHistogram("bwtree_descend_depth")
	mDescendRestarts = metrics.NewCounter("bwtree_descend_restarts")
)

// pathEntry records one inner page visited during a descent: the LPID
// and the chain head observed there. The head doubles as the expected
// value when an SMO later posts a delta to that parent.
type pathEntry struct {
	lpid uint64
	head uint64
}

// maxDescentRestarts bounds descent retries before declaring the tree
// corrupt; lock-free traversals can restart, but unbounded restarts with
// no progress indicate a structural bug, and hiding that would be worse
// than failing loudly.
const maxDescentRestarts = 1000

// maxDescentDepth bounds a single descent (and sizes Handle.pathBuf); a
// deeper walk means a routing cycle, and the descent restarts.
const maxDescentDepth = 64

// errDescentDiverged is a sentinel (descend is on the //pmwcas:hotpath
// proof, where constructing an error would allocate).
var errDescentDiverged = errors.New("bwtree: descent did not converge (structure corrupt?)")

// descend walks from the root to the leaf covering key, searching each
// page in place, helping in-flight baseline splits along the way, and
// returns the inner-page path, the leaf's LPID, and the leaf's answer
// for key.
//
//pmwcas:requires-guard — dereferences mapping words and page chains
func (h *Handle) descend(key uint64) ([]pathEntry, uint64, pageHit, error) {
	t := h.tree
restart:
	for attempt := 0; attempt < maxDescentRestarts; attempt++ {
		if attempt > 0 {
			mDescendRestarts.Inc(h.lane)
		}
		// The ancestor stack lives in the handle's preallocated scratch:
		// a nil-append here would heap-allocate on every descend. The
		// slice is valid until the next descend on this handle; maintain
		// consumes it before then.
		path := h.pathBuf[:0]
		lpid := uint64(RootLPID)
		for depth := 0; depth < maxDescentDepth; depth++ {
			head := h.readMapping(lpid)
			if head == 0 {
				continue restart // LPID died (merge) between route and read
			}
			s := t.search(head, key)
			if s.removed {
				continue restart
			}
			if key > s.high {
				// An orphan split (baseline mode) leaves this range
				// reachable only through the side link until someone
				// posts the parent update; needing the lateral move is
				// precisely the signal that the posting is missing, so
				// help before following the link (Bw-tree help-along).
				if s.high < s.baseHigh && t.smo == SMOSingleCAS && len(path) > 0 {
					h.helpSplitCAS(path[len(path)-1].lpid, t.dev.Load(s.base+baseLowOff), s.high,
						s.baseHigh, lpid, s.side)
				}
				side := t.sibling(&s)
				if side == 0 {
					continue restart // stale route past the rightmost page
				}
				lpid = side
				continue
			}
			if s.isLeaf {
				mDescendDepth.Observe(h.lane, int64(depth)+1)
				return path, lpid, s, nil
			}
			if !s.found {
				continue restart
			}
			path = append(path, pathEntry{lpid: lpid, head: head})
			lpid = s.val
		}
		continue restart // implausible depth: restart defensively
	}
	return nil, 0, pageHit{}, errDescentDiverged
}

// Get returns the value stored under key.
//
//pmwcas:hotpath — Bw-tree point lookup; delta-chain traffic must stay on NVRAM, not the Go heap — amortized consolidation pinned by TestPointOpsAllocBudget
func (h *Handle) Get(key uint64) (uint64, error) {
	if err := checkKey(key); err != nil {
		return 0, err
	}
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()
	_, _, s, err := h.descend(key)
	if err != nil {
		return 0, err
	}
	if !s.found {
		return 0, ErrNotFound
	}
	return s.val, nil
}

// Contains reports whether key is present.
func (h *Handle) Contains(key uint64) bool {
	_, err := h.Get(key)
	return err == nil
}

// recPut is write's type for PutOwned: the descent's answer makes it
// recUpdate when the key is present and recInsert when it is absent. No
// record ever carries it.
const recPut = ^uint64(0)

// Insert adds key/value; ErrKeyExists if present.
//
//pmwcas:hotpath — Bw-tree point insert; delta-chain traffic must stay on NVRAM, not the Go heap — amortized consolidation pinned by TestPointOpsAllocBudget
func (h *Handle) Insert(key, value uint64) error {
	_, err := h.write(key, value, recInsert, false)
	return err
}

// Update replaces the value under key; ErrNotFound if absent.
//
//pmwcas:hotpath — Bw-tree point update; delta-chain traffic must stay on NVRAM, not the Go heap — amortized consolidation pinned by TestPointOpsAllocBudget
func (h *Handle) Update(key, value uint64) error {
	_, err := h.write(key, value, recUpdate, false)
	return err
}

// Delete removes key; ErrNotFound if absent.
//
//pmwcas:hotpath — Bw-tree point delete; delta-chain traffic must stay on NVRAM, not the Go heap — amortized consolidation pinned by TestPointOpsAllocBudget
func (h *Handle) Delete(key uint64) error {
	_, err := h.write(key, 0, recDelete, false)
	return err
}

// PutOwned inserts value under key, or replaces the value the tree owns
// there. value is a reserved, filled block (index.Owner) that rides the
// PMwCAS installing the delta, as the new value of the delta's owned word
// (displaced → value, FreeOne): success frees the displaced block once
// the epoch allows, failure frees value. The entry is not on the delta's
// value word, which readers load raw. A lost PMwCAS returns
// index.ErrRaced; every other error returns value to the allocator.
//
//pmwcas:hotpath — blob-layer PUT on the Bw-tree; allocation-free like Insert and Update, which share its body
func (h *Handle) PutOwned(key, value uint64) error {
	_, err := h.write(key, value, recPut, true)
	return err
}

// DeleteOwned is Delete of a value the tree owns: the delete delta
// records the value, and the PMwCAS that installs the delta frees its
// block. It returns the value it removed.
//
//pmwcas:hotpath — blob-layer delete on the Bw-tree; allocation-free like Delete, which shares its body
func (h *Handle) DeleteOwned(key uint64) (uint64, error) {
	return h.write(key, 0, recDelete, true)
}

// ErrOwnedSingleCAS rejects owned writes in the baseline mode, whose
// plain-CAS installs have no recycle policy to free the displaced block.
// Layers that own their values refuse the mode when they open.
var ErrOwnedSingleCAS = errors.New("bwtree: owned values need a descriptor SMO mode")

// write installs one leaf delta (insert, update, or delete — Figure 4a)
// and runs page maintenance afterwards. It returns the value the write
// displaced.
func (h *Handle) write(key, value, typ uint64, owned bool) (uint64, error) {
	err := checkKey(key)
	if err == nil {
		err = checkValue(value)
	}
	if err == nil && owned && h.tree.smo == SMOSingleCAS {
		err = ErrOwnedSingleCAS
	}
	// pending is an owned value no descriptor has taken yet: writeOnce
	// zeroes it at the handoff, and a write refused before then returns
	// it to the allocator.
	var pending uint64
	if typ == recPut {
		pending = value
	}
	for err == nil {
		var old uint64
		switch old, err = h.writeOnce(key, value, typ, owned, &pending); {
		case err == nil:
			return old, nil
		case errors.Is(err, core.ErrPoolExhausted):
			h.tree.pool.ReclaimPause()
			err = nil
		case errors.Is(err, errRetry):
			err = nil
		}
	}
	if pending != 0 {
		h.tree.alloc.Unreserve(pending)
	}
	return 0, err
}

// errRetry signals a lost installation race: re-descend and try again.
var errRetry = errors.New("bwtree: retry")

// writeOnce makes one attempt on one descent. The descent's hit is the
// key's current value; the mapping-word PMwCAS expects the head that hit
// was read from, so it still holds at the install. An owned write records
// the displaced value in its delta's owned word. An owned delete pins it
// there with an old == new FreeOldOnSuccess entry, which frees its block
// on success; an owned put hands *pending to the descriptor as that
// word's new value under FreeOne, and a lost PMwCAS is then index.ErrRaced.
func (h *Handle) writeOnce(key, value, typ uint64, owned bool, pending *uint64) (uint64, error) {
	t := h.tree
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()

	path, leafLPID, s, err := h.descend(key)
	if err != nil {
		return 0, err
	}
	if typ == recPut {
		typ = recInsert
		if s.found {
			typ = recUpdate
		}
	}
	switch {
	case typ == recInsert && s.found:
		return 0, ErrKeyExists
	case typ != recInsert && !s.found:
		return 0, ErrNotFound
	}
	var displaced uint64
	if owned && s.found {
		displaced = s.val
	}

	if t.crowded(s.chain) {
		// Nobody appends to a crowded chain: help shorten it, then retry.
		// Maintenance that cannot build a page surfaces here (e.g.
		// alloc.ErrOutOfMemory) instead of the chain growing past its cap.
		if err := h.maintain(path, leafLPID); err != nil {
			return 0, err
		}
		return 0, errRetry
	}

	if t.smo == SMOSingleCAS {
		delta, err := buildDelta(t, h.ah, typ, uint64(s.head), s.chain+1, [5]uint64{key, value}, 2, owner{})
		if err != nil {
			return 0, err
		}
		//lint:allow rawload — baseline mode installs deltas with plain CAS (paper §6.2), outside the dirty-bit protocol
		if !t.dev.CAS(t.mappingOff(leafLPID), uint64(s.head), uint64(delta)) {
			_ = t.alloc.Free(delta)
			return 0, errRetry
		}
	} else {
		d, err := h.core.AllocateDescriptor(0)
		if err != nil {
			return 0, err
		}
		put := *pending != 0
		n := 2 // an owned write also records the value it displaces
		if put || displaced != 0 {
			n = 3
		}
		delta, err := h.reserveDelta(d, leafLPID, uint64(s.head), core.PolicyFreeNewOnFailure,
			typ, uint64(s.head), s.chain+1, [5]uint64{key, value, displaced}, n)
		if err == nil && put {
			err = d.ReserveEntry(delta+deltaOwnedOff, displaced, value, core.PolicyFreeOne)
			*pending = 0
		} else if err == nil && displaced != 0 {
			err = d.AddWordWithPolicy(delta+deltaOwnedOff, displaced, displaced, core.PolicyFreeOldOnSuccess)
		}
		if err != nil {
			d.Discard()
			return 0, err
		}
		ok, err := d.Execute()
		switch {
		case err != nil:
			return 0, err
		case !ok && put:
			return 0, index.ErrRaced // the failure policy freed value
		case !ok:
			return 0, errRetry
		}
	}
	_ = h.maintain(path, leafLPID) // best-effort: the write has landed
	return s.val, nil
}

// Scan visits keys in [from, to] ascending, following leaf side links.
// fn returning false stops the scan. fn runs under the scan's epoch
// guard and must not block.
func (h *Handle) Scan(from, to uint64, fn func(Entry) bool) error {
	if err := checkKey(from); err != nil {
		return err
	}
	if to >= MaxKey {
		to = MaxKey - 1
	}
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()

	_, _, s, err := h.descend(from)
	if err != nil {
		return err
	}
	v := h.resolve(uint64(s.head))
	for {
		for _, e := range v.entries {
			if e.Key < from {
				continue
			}
			if e.Key > to {
				return nil
			}
			//lint:allow nonblock — user visitor runs under the scan guard by documented contract; it must not block (§6.3)
			if !fn(e) {
				return nil
			}
		}
		if v.high >= to || v.high >= MaxKey {
			return nil
		}
		// Move right. Re-descending from the fence is always correct;
		// following the side link is the fast path.
		cursor := v.high + 1
		if v.side != 0 {
			if head := h.readMapping(v.side); head != 0 {
				if sv := h.resolve(head); !sv.removed && sv.low < cursor {
					v = sv
					continue
				}
			}
		}
		_, _, s, err := h.descend(cursor)
		if err != nil {
			return err
		}
		v = h.resolve(uint64(s.head))
	}
}

// Range returns the entries in [from, to] ascending.
func (h *Handle) Range(from, to uint64) ([]Entry, error) {
	var out []Entry
	err := h.Scan(from, to, func(e Entry) bool { out = append(out, e); return true })
	return out, err
}

// Len counts keys by scanning. O(n); tests and tools only.
func (h *Handle) Len() int {
	n := 0
	h.Scan(1, MaxKey-1, func(Entry) bool { n++; return true })
	return n
}
