package bwtree

import (
	"errors"
	"time"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/metrics"
	"pmwcas/internal/nvram"
)

// SMO latency instruments (DRAM-only). Only attempts that did work are
// observed: the cheap "nothing to do" early returns stay unmeasured so
// the distributions describe real SMOs.
var (
	mConsolidateNs = metrics.NewHistogram("bwtree_consolidate_ns")
	mSplitNs       = metrics.NewHistogram("bwtree_split_ns")
	mMergeNs       = metrics.NewHistogram("bwtree_merge_ns")
)

// observeSMO records one SMO's latency when it ran to a decision.
func (h *Handle) observeSMO(hist *metrics.Histogram, t0 time.Time, did bool) {
	if did && !t0.IsZero() {
		hist.ObserveSince(h.lane, t0)
	}
}

// smoStart returns the timing origin for an SMO attempt, zero when
// metrics are off.
func smoStart() time.Time {
	if metrics.On() {
		return time.Now()
	}
	return time.Time{}
}

// Structure modification operations: consolidation, splits, and merges.
//
// In SMOPMwCAS mode every SMO is a single PMwCAS over the mapping-table
// words it touches — split delta, sibling installation, and the parent's
// index-entry delta commit or vanish together (§6.2, "the approach
// collapses the multi-step SMO into a single PMwCAS"). Maintenance is
// best-effort: a failed SMO just means somebody changed a page first;
// the next operation through the page retries.
//
// In SMOSingleCAS mode an SMO is the classic delta sequence with
// help-along, implemented at the bottom of this file.

// cbSMO is the finalize-callback ID (registered at startup, §4.1) for
// SMOs whose success-side garbage is an entire delta chain rather than a
// single block.
const cbSMO = 1

// RegisterRecoveryCallbacks installs the tree's finalize callbacks on a
// pool. It must run before Pool.Recover after a restart — recovery may
// need to replay an SMO's chain frees. Tree construction calls it too;
// duplicate registration is harmless.
func RegisterRecoveryCallbacks(pool *core.Pool, a *alloc.Allocator) {
	dev := pool.Device()
	err := pool.RegisterCallback(cbSMO, func(v core.DescriptorView, succeeded bool) {
		smoFinalize(dev, a, v, succeeded)
	})
	if err != nil && !errorsIsDup(err) {
		panic(err)
	}
}

func errorsIsDup(err error) bool {
	return err != nil && errors.Is(err, core.ErrCallbackRegistered)
}

// smoFinalize implements Table-1 policy semantics for SMO descriptors,
// with one difference: a successful FreeOne releases the whole delta
// chain behind the old value, not just its head block. The frees are
// interlocked with the descriptor entry exactly like the default
// finalizer (clear bits, erase the entry durably, then republish), so a
// crash mid-finalize is replayed safely by recovery.
func smoFinalize(dev *nvram.Device, a *alloc.Allocator, v core.DescriptorView, succeeded bool) {
	for i := 0; i < v.WordCount(); i++ {
		switch v.Policy(i) {
		case core.PolicyFreeOne:
			if succeeded {
				old := v.Old(i)
				if old == 0 || !core.IsClean(old) {
					continue
				}
				blocks := chainBlocksOf(dev, old)
				field := v.OldFieldOffset(i)
				_ = a.FreeManyWithBarrier(blocks, func() {
					dev.Store(field, 0)
					dev.Flush(field)
				})
			} else {
				newv := v.New(i)
				if newv == 0 || !core.IsClean(newv) {
					continue
				}
				field := v.NewFieldOffset(i)
				_ = a.FreeWithBarrier(nvram.Offset(newv), func() {
					dev.Store(field, 0)
					dev.Flush(field)
				})
			}
		case core.PolicyFreeNewOnFailure:
			if succeeded {
				continue
			}
			newv := v.New(i)
			if newv == 0 || !core.IsClean(newv) {
				continue
			}
			field := v.NewFieldOffset(i)
			_ = a.FreeWithBarrier(nvram.Offset(newv), func() {
				dev.Store(field, 0)
				dev.Flush(field)
			})
		}
	}
}

// chainBlocksOf is Tree.chainBlocks without a Tree (usable at recovery).
func chainBlocksOf(dev *nvram.Device, head uint64) []nvram.Offset {
	var out []nvram.Offset
	rec := nvram.Offset(head)
	for rec != 0 {
		out = append(out, rec)
		typ := dev.Load(rec+recMetaOff) & 0xff
		if typ == recBaseLeaf || typ == recBaseInner || typ == recRemoved {
			break
		}
		rec = nvram.Offset(dev.Load(rec + recNextOff))
	}
	return out
}

func (t *Tree) registerCallbacks() error {
	RegisterRecoveryCallbacks(t.pool, t.alloc)
	return nil
}

// maintain runs post-operation maintenance on a page: consolidate long
// chains, then split oversized or merge undersized pages. Best-effort;
// all failures are silent (retried by future traffic).
//
//pmwcas:requires-guard — re-reads mappings and walks page chains
func (h *Handle) maintain(path []pathEntry, lpid uint64) {
	t := h.tree
	head := h.readMapping(lpid)
	// A short chain with merging off has nothing to fire: consolidation
	// waits for consolAt deltas and split refuses chained pages.
	if chain := t.recChain(nvram.Offset(head)); chain > 0 && chain < t.consolAt && t.mergeBelow == 0 {
		return
	}
	v := h.resolve(head)
	if v.removed {
		return
	}
	if v.chain >= t.consolAt {
		page := h.consolidate(lpid, &v)
		// While the mapping still holds the new base, the view already
		// is its content.
		if page == 0 || h.readMapping(lpid) != uint64(page) {
			return
		}
		v.head, v.chain = page, 0
	}
	capacity := t.leafCap
	if !v.isLeaf {
		capacity = t.innerCap
	}
	size := len(v.leafEntries) + len(v.innerEntries)
	changedParent := false
	switch {
	case size > capacity:
		changedParent = h.split(path, lpid, &v)
	case t.mergeBelow > 0 && size < t.mergeBelow && lpid != RootLPID:
		changedParent = h.merge(path, lpid, &v)
	case t.mergeBelow > 0 && !v.isLeaf && lpid == RootLPID && len(path) == 0 &&
		len(v.innerEntries) == 1:
		// Merging drained the root down to a single child: collapse the
		// height by hoisting the child's content behind the root LPID —
		// repeatedly, since the hoisted child may itself be a single-entry
		// inner.
		if h.collapseRoot(&v) {
			h.maintain(nil, RootLPID)
		}
	}
	// An SMO posts a delta to the parent; cascade maintenance upward so
	// inner chains consolidate and inner pages split in turn.
	if changedParent && len(path) > 0 {
		h.maintain(path[:len(path)-1], path[len(path)-1].lpid)
	}
}

// collapseRoot replaces a single-child inner root with a copy of that
// child, retiring the child's LPID — the inverse of splitRoot, and like
// every SMO here a single PMwCAS: {root: oldRoot→childCopy,
// child: childChain→removed}. Readers mid-descent through the old child
// LPID hit the removed marker and restart.
//
//pmwcas:requires-guard — reads mappings of pages another thread may retire
func (h *Handle) collapseRoot(v *pageView) bool {
	t := h.tree
	childLPID := v.innerEntries[0].Child
	childHead := h.readMapping(childLPID)
	if childHead == 0 {
		return false
	}
	cv := h.resolve(childHead)
	if cv.removed {
		return false
	}
	d, err := h.core.AllocateDescriptor(cbSMO)
	if err != nil {
		return false
	}
	// Root takes over the child's resolved content; the old root chain
	// and the child's whole chain are freed on success.
	fR, err := d.ReserveEntry(t.mappingOff(RootLPID), uint64(v.head), core.PolicyFreeOne)
	if err != nil {
		_ = d.Discard()
		return false
	}
	if cv.isLeaf {
		_, err = buildLeafInto(t, h.ah, cv.leafEntries, cv.low, cv.high, cv.side, fR)
	} else {
		_, err = buildInnerInto(t, h.ah, cv.innerEntries, cv.low, cv.high, cv.side, fR)
	}
	if err != nil {
		_ = d.Discard()
		return false
	}
	fC, err := d.ReserveEntry(t.mappingOff(childLPID), childHead, core.PolicyFreeOne)
	if err != nil {
		_ = d.Discard()
		return false
	}
	if _, err := buildRemovedMarker(t, h.ah, fC); err != nil {
		_ = d.Discard()
		return false
	}
	ok, _ := d.Execute()
	return ok
}

// consolidate replaces a delta chain with a fresh base page. Returns the
// base it installed, or 0 if the swap did not land.
//
//pmwcas:requires-guard — reads the mapping word it intends to swap
func (h *Handle) consolidate(lpid uint64, v *pageView) (page nvram.Offset) {
	t := h.tree
	if v.removed || v.chain == 0 {
		return 0
	}
	t0 := smoStart()
	//lint:allow hotpath — SMO timing closure; consolidation is amortized maintenance triggered past chain/size thresholds, its cost pinned by TestPointOpsAllocBudget, not the per-op proof (§6.3)
	defer func() { h.observeSMO(mConsolidateNs, t0, page != 0) }()
	if t.smo == SMOSingleCAS {
		return h.consolidateCAS(lpid, v)
	}
	d, err := h.core.AllocateDescriptor(cbSMO)
	if err != nil {
		return 0
	}
	field, err := d.ReserveEntry(t.mappingOff(lpid), uint64(v.head), core.PolicyFreeOne)
	if err != nil {
		d.Discard()
		return 0
	}
	if v.isLeaf {
		page, err = buildLeafInto(t, h.ah, v.leafEntries, v.low, v.high, v.side, field)
	} else {
		page, err = buildInnerInto(t, h.ah, v.innerEntries, v.low, v.high, v.side, field)
	}
	if err != nil {
		d.Discard()
		return 0
	}
	if ok, _ := d.Execute(); !ok {
		return 0
	}
	return page
}

// split divides an oversized, fully consolidated page, posting the new
// sibling and the parent's index-entry delta in one PMwCAS. Root splits
// move the old root behind a fresh LPID and swap a new inner root in —
// also one PMwCAS.
//
//pmwcas:requires-guard — reads parent and sibling mapping words
func (h *Handle) split(path []pathEntry, lpid uint64, v *pageView) (did bool) {
	if v.chain != 0 || v.removed {
		return false // split only consolidated pages; maintenance will return
	}
	t0 := smoStart()
	//lint:allow hotpath — SMO timing closure; a split is amortized maintenance triggered past chain/size thresholds, its cost pinned by TestPointOpsAllocBudget, not the per-op proof (§6.3)
	defer func() { h.observeSMO(mSplitNs, t0, did) }()
	t := h.tree
	size := len(v.leafEntries) + len(v.innerEntries)
	if size < 2 {
		return false
	}
	if t.smo == SMOSingleCAS {
		return h.splitCAS(path, lpid, v)
	}

	var sep uint64
	if v.isLeaf {
		sep = v.leafEntries[len(v.leafEntries)/2-1].Key
	} else {
		sep = v.innerEntries[len(v.innerEntries)/2-1].Key
	}
	if sep == v.high {
		return false // cannot split: all weight at the top
	}

	if lpid == RootLPID && len(path) == 0 {
		h.splitRoot(v, sep)
		return false // the new root has no parent to maintain
	}
	if len(path) == 0 {
		return false // stale: non-root page with no recorded parent
	}
	parent := path[len(path)-1]

	qLPID, err := t.allocLPID()
	if err != nil {
		return false
	}
	d, err := h.core.AllocateDescriptor(cbSMO)
	if err != nil {
		return false
	}
	// Sibling Q takes the upper half.
	fQ, err := d.ReserveEntry(t.mappingOff(qLPID), 0, core.PolicyFreeNewOnFailure)
	if err != nil {
		_ = d.Discard()
		return false
	}
	if _, err := buildUpperHalf(t, h.ah, v, sep, fQ); err != nil {
		_ = d.Discard()
		return false
	}
	// Split delta on P.
	fP, err := d.ReserveEntry(t.mappingOff(lpid), uint64(v.head), core.PolicyFreeNewOnFailure)
	if err != nil {
		_ = d.Discard()
		return false
	}
	if _, err := buildSplitDelta(t, h.ah, sep, qLPID, uint64(v.head), v.chain+1, fP); err != nil {
		_ = d.Discard()
		return false
	}
	// Index-entry delta on the parent.
	fO, err := d.ReserveEntry(t.mappingOff(parent.lpid), parent.head, core.PolicyFreeNewOnFailure)
	if err != nil {
		_ = d.Discard()
		return false
	}
	parentChain := t.recChain(nvram.Offset(parent.head))
	if _, err := buildIndexEntryDelta(t, h.ah, v.low, sep, v.high, lpid, qLPID,
		parent.head, parentChain+1, fO); err != nil {
		_ = d.Discard()
		return false
	}
	ok, _ := d.Execute()
	return ok
}

// splitRoot splits the root page behind a constant root LPID: the old
// chain moves to fresh LPID P2 (under a split delta), the upper half
// becomes Q, and a new two-entry inner root replaces the root mapping.
//
//pmwcas:requires-guard — reads the root mapping word mid-swap
func (h *Handle) splitRoot(v *pageView, sep uint64) {
	t := h.tree
	p2, err := t.allocLPID()
	if err != nil {
		return
	}
	q, err := t.allocLPID()
	if err != nil {
		return
	}
	d, err := h.core.AllocateDescriptor(cbSMO)
	if err != nil {
		return
	}
	fQ, err := d.ReserveEntry(t.mappingOff(q), 0, core.PolicyFreeNewOnFailure)
	if err != nil {
		_ = d.Discard()
		return
	}
	if _, err := buildUpperHalf(t, h.ah, v, sep, fQ); err != nil {
		_ = d.Discard()
		return
	}
	fP2, err := d.ReserveEntry(t.mappingOff(p2), 0, core.PolicyFreeNewOnFailure)
	if err != nil {
		_ = d.Discard()
		return
	}
	if _, err := buildSplitDelta(t, h.ah, sep, q, uint64(v.head), v.chain+1, fP2); err != nil {
		_ = d.Discard()
		return
	}
	fR, err := d.ReserveEntry(t.mappingOff(RootLPID), uint64(v.head), core.PolicyFreeNewOnFailure)
	if err != nil {
		_ = d.Discard()
		return
	}
	//lint:allow hotpath — root split happens O(log N) times over the tree's whole life; a two-entry scratch slice there is noise (§6.3)
	entries := []InnerEntry{{Key: sep, Child: p2}, {Key: v.high, Child: q}}
	if _, err := buildInnerInto(t, h.ah, entries, v.low, v.high, 0, fR); err != nil {
		_ = d.Discard()
		return
	}
	d.Execute()
}

// buildUpperHalf materializes the sibling page holding keys above sep.
func buildUpperHalf(t *Tree, ah *alloc.Handle, v *pageView, sep uint64, target nvram.Offset) (nvram.Offset, error) {
	if v.isLeaf {
		i := 0
		for i < len(v.leafEntries) && v.leafEntries[i].Key <= sep {
			i++
		}
		return buildLeafInto(t, ah, v.leafEntries[i:], sep, v.high, v.side, target)
	}
	i := 0
	for i < len(v.innerEntries) && v.innerEntries[i].Key <= sep {
		i++
	}
	return buildInnerInto(t, ah, v.innerEntries[i:], sep, v.high, v.side, target)
}

// merge folds an underfull page (leaf or inner) into its left neighbor
// (or, for the leftmost child, pulls its right neighbor in) with one
// PMwCAS touching both pages and the parent — the three-step
// delete/merge protocol of the CAS-based Bw-tree collapsed into a single
// atomic operation.
//
//pmwcas:requires-guard — reads three mapping words another thread may retire
func (h *Handle) merge(path []pathEntry, lpid uint64, v *pageView) (did bool) {
	t := h.tree
	if len(path) == 0 || v.removed {
		return false
	}
	t0 := smoStart()
	//lint:allow hotpath — SMO timing closure; a merge is amortized maintenance triggered past chain/size thresholds, its cost pinned by TestPointOpsAllocBudget, not the per-op proof (§6.3)
	defer func() { h.observeSMO(mMergeNs, t0, did) }()
	parent := path[len(path)-1]
	pv := h.resolve(parent.head)
	if pv.removed || pv.isLeaf {
		return false
	}

	// Locate this page under the parent and pick the neighbor.
	idx := -1
	for i, e := range pv.innerEntries {
		if e.Child == lpid {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false // stale parent snapshot
	}
	var leftLPID, rightLPID uint64
	if idx > 0 {
		leftLPID, rightLPID = pv.innerEntries[idx-1].Child, lpid
	} else if idx+1 < len(pv.innerEntries) {
		leftLPID, rightLPID = lpid, pv.innerEntries[idx+1].Child
	} else {
		return false // only child; nothing to merge with
	}

	lHead := h.readMapping(leftLPID)
	rHead := h.readMapping(rightLPID)
	lv := h.resolve(lHead)
	rv := h.resolve(rHead)
	if lv.removed || rv.removed || lv.isLeaf != rv.isLeaf {
		return false
	}
	if lv.high != rv.low {
		return false // not adjacent anymore (e.g., racing split in between)
	}

	d, err := h.core.AllocateDescriptor(cbSMO)
	if err != nil {
		return false
	}
	// The left page absorbs both; its old chain is freed on success.
	fL, err := d.ReserveEntry(t.mappingOff(leftLPID), lHead, core.PolicyFreeOne)
	if err != nil {
		_ = d.Discard()
		return false
	}
	if lv.isLeaf {
		//lint:allow hotpath — merge is the rarest SMO (underflow after deletes); its scratch is amortized away, pinned by TestPointOpsAllocBudget (§6.3)
		merged := make([]Entry, 0, len(lv.leafEntries)+len(rv.leafEntries))
		merged = append(merged, lv.leafEntries...)
		merged = append(merged, rv.leafEntries...)
		if len(merged) > t.leafCap {
			_ = d.Discard()
			return false // would immediately re-split
		}
		if _, err := buildLeafInto(t, h.ah, merged, lv.low, rv.high, rv.side, fL); err != nil {
			_ = d.Discard()
			return false
		}
	} else {
		//lint:allow hotpath — merge is the rarest SMO (underflow after deletes); its scratch is amortized away, pinned by TestPointOpsAllocBudget (§6.3)
		merged := make([]InnerEntry, 0, len(lv.innerEntries)+len(rv.innerEntries))
		merged = append(merged, lv.innerEntries...)
		merged = append(merged, rv.innerEntries...)
		if len(merged) > t.innerCap {
			_ = d.Discard()
			return false
		}
		if _, err := buildInnerInto(t, h.ah, merged, lv.low, rv.high, rv.side, fL); err != nil {
			_ = d.Discard()
			return false
		}
	}
	// The right page dies behind a removed marker; its chain is freed on
	// success, the marker on failure.
	fR, err := d.ReserveEntry(t.mappingOff(rightLPID), rHead, core.PolicyFreeOne)
	if err != nil {
		_ = d.Discard()
		return false
	}
	if _, err := buildRemovedMarker(t, h.ah, fR); err != nil {
		_ = d.Discard()
		return false
	}
	// Parent: collapse the two routing entries into one.
	fO, err := d.ReserveEntry(t.mappingOff(parent.lpid), parent.head, core.PolicyFreeNewOnFailure)
	if err != nil {
		_ = d.Discard()
		return false
	}
	parentChain := t.recChain(nvram.Offset(parent.head))
	if _, err := buildIndexDeleteDelta(t, h.ah, lv.low, rv.high, leftLPID,
		parent.head, parentChain+1, fO); err != nil {
		_ = d.Discard()
		return false
	}
	ok, _ := d.Execute()
	return ok
}
