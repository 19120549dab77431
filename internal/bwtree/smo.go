package bwtree

import (
	"errors"
	"time"

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
// words it touches — both halves of a split and the parent, rewritten as
// a fresh base with the child's route replaced, commit or vanish
// together (§6.2, "the approach collapses the multi-step SMO into a
// single PMwCAS"). So inner pages carry no delta chain, and a descent
// walks none. Maintenance is best-effort: a failed SMO just means
// somebody changed a page first; the next operation through the page
// retries. Only a crowded chain (see crowded) makes a writer wait for
// maintenance to land.
//
// In SMOSingleCAS mode an SMO is the classic delta sequence with
// help-along, implemented in smo_singlecas.go; its index-term deltas are
// the only ones a tree still writes. An image written while PMwCAS SMOs
// posted them still reads, and its first SMO through such a parent
// rewrites it.

// cbSMO is the finalize-callback ID (registered at startup, §4.1) for
// SMOs whose success-side garbage is an entire delta chain rather than a
// single block.
const cbSMO = 1

// RegisterRecoveryCallbacks installs the tree's finalize callbacks on a
// pool. It must run before Pool.Recover after a restart — recovery may
// need to replay an SMO's chain frees. Tree construction calls it too;
// duplicate registration is harmless.
func RegisterRecoveryCallbacks(pool *core.Pool) {
	dev := pool.Device()
	err := pool.RegisterCallback(cbSMO, func(v core.DescriptorView, succeeded bool) {
		smoFinalize(dev, v, succeeded)
	})
	if err != nil && !errors.Is(err, core.ErrCallbackRegistered) {
		panic(err)
	}
}

// smoFinalize is Table-1 policy semantics for SMO descriptors, with one
// difference: a successful FreeOne releases the whole delta chain behind
// the old value, not just its head block. The blocks join the
// descriptor's one free batch (DescriptorView.FreeBlock), so a crash
// mid-finalize is replayed safely by recovery.
func smoFinalize(dev *nvram.Device, v core.DescriptorView, succeeded bool) {
	for i := 0; i < v.WordCount(); i++ {
		victim := v.Victim(i, succeeded)
		if victim == 0 {
			continue
		}
		if !succeeded || v.Policy(i) != core.PolicyFreeOne {
			_ = v.FreeBlock(victim)
			continue
		}
		for rec := victim; rec != 0; rec = chainNext(dev, rec) {
			_ = v.FreeBlock(rec)
		}
	}
}

// chainNext returns the record after rec in its chain, or 0 when rec ends
// it (a base page or a removed node), for walking a chain record by
// record to free it (usable at recovery, without a Tree).
func chainNext(dev *nvram.Device, rec nvram.Offset) nvram.Offset {
	typ := dev.Load(rec+recMetaOff) & 0xff
	if typ == recBaseLeaf || typ == recBaseInner || typ == recRemoved {
		return 0
	}
	return nvram.Offset(dev.Load(rec + recNextOff))
}

// capacity is the most entries a page of the kind holds unsplit.
func (t *Tree) capacity(leaf bool) int {
	if leaf {
		return t.leafCap
	}
	return t.innerCap
}

// crowded reports whether a chain has reached its cap, twice the
// consolidation threshold. Nobody appends to a crowded chain: writers
// and SMOs run its maintenance instead and retry, so chains shorten
// under contention rather than grow (the Bw-tree's help-along
// discipline).
func (t *Tree) crowded(chain int) bool { return chain >= 2*t.consolAt }

// maintain runs maintenance on a page after an operation: it splits an
// oversized page whatever its chain, else consolidates a long chain, and
// merges an undersized page. A lost race is not an error, since the next
// operation through the page retries. It returns what kept an SMO from
// being built (allocator, mapping table or descriptor pool out of room),
// so a writer facing a crowded chain can report it rather than retry
// forever.
//
//pmwcas:requires-guard — re-reads mappings and walks page chains
func (h *Handle) maintain(path []pathEntry, lpid uint64) error {
	t := h.tree
	head := h.readMapping(lpid)
	// A short chain with merging off has nothing to fire: consolidation
	// waits for consolAt deltas, and a page outgrows its capacity only
	// through deltas.
	if chain := t.recChain(nvram.Offset(head)); chain > 0 && chain < t.consolAt && t.mergeBelow == 0 {
		return nil
	}
	v := h.resolve(head)
	if v.removed {
		return nil
	}
	if len(v.entries) > t.capacity(v.isLeaf) {
		did, err := h.split(path, lpid, &v)
		if did && t.smo == SMOSingleCAS {
			h.maintainParent(path) // the parent gained an index-entry delta
		}
		return err
	}
	if v.chain >= t.consolAt {
		if v.high < v.baseHigh && len(path) > 0 {
			// A baseline split still pending here loses its help-along
			// signal when the chain folds: post it first.
			h.helpSplitCAS(path[len(path)-1].lpid, v.low, v.high, v.baseHigh, lpid, v.side)
		}
		page, err := h.consolidate(lpid, &v)
		// While the mapping still holds the new base, the view already
		// is its content.
		if page == 0 || h.readMapping(lpid) != uint64(page) {
			return err
		}
		v.head, v.chain = page, 0
	}
	switch {
	case t.mergeBelow > 0 && len(v.entries) < t.mergeBelow && lpid != RootLPID:
		if h.merge(path, lpid, &v) {
			h.maintainParent(path)
		}
	case t.mergeBelow > 0 && !v.isLeaf && lpid == RootLPID && len(path) == 0 && len(v.entries) == 1:
		// Merging drained the root down to a single child: collapse the
		// height by hoisting the child's content behind the root LPID —
		// repeatedly, since the hoisted child may itself be a single-entry
		// inner.
		if h.collapseRoot(&v) {
			_ = h.maintain(nil, RootLPID)
		}
	}
	return nil
}

// maintainParent cascades maintenance to the parent an SMO changed: a
// merge may leave it underfull, and a baseline split's index-entry delta
// may leave its chain long or its content over capacity.
//
//pmwcas:requires-guard — maintains the parent page
func (h *Handle) maintainParent(path []pathEntry) {
	if len(path) > 0 {
		_ = h.maintain(path[:len(path)-1], path[len(path)-1].lpid)
	}
}

// reservePage builds v's entries [from, to) as a base page under the
// given fences and hands it to d's entry for lpid's mapping word,
// expecting old.
func (h *Handle) reservePage(d *core.Descriptor, lpid, old uint64, policy core.Policy, v *pageView, from, to int, low, high, side uint64) (nvram.Offset, error) {
	return buildPage(h.tree, h.ah, v, from, to, low, high, side, owner{d, h.tree.mappingOff(lpid), old, policy})
}

// reserveDelta builds a delta of type typ over next carrying body[:n]
// and hands it to d's entry for lpid's mapping word, expecting old.
func (h *Handle) reserveDelta(d *core.Descriptor, lpid, old uint64, policy core.Policy, typ, next uint64, chain int, body [5]uint64, n int) (nvram.Offset, error) {
	return buildDelta(h.tree, h.ah, typ, next, chain, body, n, owner{d, h.tree.mappingOff(lpid), old, policy})
}

// reserveRemoved retires lpid behind a removed marker: its chain, old,
// is freed on success and the marker on failure.
func (h *Handle) reserveRemoved(d *core.Descriptor, lpid, old uint64) error {
	_, err := h.reserveDelta(d, lpid, old, core.PolicyFreeOne, recRemoved, 0, 0, [5]uint64{}, 0)
	return err
}

// collapseRoot replaces a single-child inner root with a copy of that
// child, retiring the child's LPID — the inverse of a root split, and
// like every SMO here a single PMwCAS: {root: oldRoot→childCopy,
// child: childChain→removed}. Readers mid-descent through the old child
// LPID hit the removed marker and restart.
//
//pmwcas:requires-guard — reads mappings of pages another thread may retire
func (h *Handle) collapseRoot(v *pageView) bool {
	childLPID := v.entries[0].Value
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
	// Root takes over the child's content; the old root chain and the
	// child's whole chain are freed on success.
	_, err = h.reservePage(d, RootLPID, uint64(v.head), core.PolicyFreeOne, &cv, 0, len(cv.entries), cv.low, cv.high, cv.side)
	if err == nil {
		err = h.reserveRemoved(d, childLPID, childHead)
	}
	if err != nil {
		_ = d.Discard()
		return false
	}
	ok, _ := d.Execute()
	return ok
}

// consolidate replaces a delta chain with a fresh base page. It returns
// the base it installed, or 0 if the swap did not land, and the error
// that kept the base from being built.
//
//pmwcas:requires-guard — reads the mapping word it intends to swap
func (h *Handle) consolidate(lpid uint64, v *pageView) (page nvram.Offset, err error) {
	t0 := smoStart()
	//lint:allow hotpath — SMO timing closure; consolidation is amortized maintenance triggered past chain/size thresholds, its cost pinned by TestPointOpsAllocBudget, not the per-op proof (§6.3)
	defer func() { h.observeSMO(mConsolidateNs, t0, page != 0) }()
	if h.tree.smo == SMOSingleCAS {
		return h.consolidateCAS(lpid, v)
	}
	d, err := h.core.AllocateDescriptor(cbSMO)
	if err != nil {
		return 0, err
	}
	page, err = h.reservePage(d, lpid, uint64(v.head), core.PolicyFreeOne, v, 0, len(v.entries), v.low, v.high, v.side)
	if err != nil {
		d.Discard()
		return 0, err
	}
	if ok, _ := d.Execute(); !ok {
		return 0, nil
	}
	return page, nil
}

// split divides an oversized page at the middle of its content, whatever
// its chain, in one PMwCAS: the lower half replaces the chain as a fresh
// base behind the same LPID (the old chain is freed on success), the
// upper half becomes a new page Q, and the parent is rewritten with the
// page's route split in two. So a split consolidates as it goes, and no
// page is ever built larger than half the content it splits. A parent
// already at capacity is split first, and this split waits for the next
// operation through the page. A root split puts the lower half behind a
// fresh LPID too and swaps a two-entry inner root in behind the root
// LPID — also one PMwCAS.
//
//pmwcas:requires-guard — reads parent and sibling mapping words
func (h *Handle) split(path []pathEntry, lpid uint64, v *pageView) (did bool, err error) {
	t0 := smoStart()
	//lint:allow hotpath — SMO timing closure; a split is amortized maintenance triggered past chain/size thresholds, its cost pinned by TestPointOpsAllocBudget, not the per-op proof (§6.3)
	defer func() { h.observeSMO(mSplitNs, t0, did) }()
	t := h.tree
	root := lpid == RootLPID && len(path) == 0
	if !root && len(path) == 0 {
		return false, nil // stale: non-root page with no recorded parent
	}
	if t.smo == SMOSingleCAS {
		return h.splitCAS(path, lpid, v)
	}
	var parent pathEntry
	var pv pageView
	at := 0
	if !root {
		parent = path[len(path)-1]
		if pv, at = h.resolveParent(parent, lpid); at < 0 {
			return false, nil // stale path
		}
		if len(pv.entries) >= t.innerCap {
			_, err := h.split(path[:len(path)-1], parent.lpid, &pv)
			return false, err
		}
	}
	mid := len(v.entries) / 2
	sep := v.entries[mid-1].Key
	q, err := t.allocLPID()
	if err != nil {
		return false, err
	}
	p, pOld, pPolicy := lpid, uint64(v.head), core.PolicyFreeOne
	if root {
		if p, err = t.allocLPID(); err != nil {
			return false, err
		}
		pOld, pPolicy = 0, core.PolicyFreeNewOnFailure
	}
	d, err := h.core.AllocateDescriptor(cbSMO)
	if err != nil {
		return false, err
	}
	_, err = h.reservePage(d, q, 0, core.PolicyFreeNewOnFailure, v, mid, len(v.entries), sep, v.high, v.side)
	if err == nil {
		_, err = h.reservePage(d, p, pOld, pPolicy, v, 0, mid, v.low, sep, q)
	}
	if err == nil && root {
		err = h.reserveRoot(d, v, sep, p, q)
	} else if err == nil {
		err = h.reserveParent(d, parent, &pv, at, at+1, Entry{Key: sep, Value: p}, Entry{Key: v.high, Value: q})
	}
	if err != nil {
		_ = d.Discard()
		return false, err
	}
	ok, _ := d.Execute()
	return ok, nil
}

// resolveParent reads the parent at the head a descent saw and returns it
// with the index of its route to lpid, or -1 if it has none (a stale
// path). A PMwCAS expecting that head and the child's lands only while
// both are current, so the route then spans the child's fences.
//
//pmwcas:requires-guard — resolves a page another thread may retire
func (h *Handle) resolveParent(parent pathEntry, lpid uint64) (pageView, int) {
	pv := h.resolve(parent.head)
	for i, e := range pv.entries {
		if e.Value == lpid && !pv.isLeaf {
			return pv, i
		}
	}
	return pv, -1
}

// reserveParent builds the parent pv afresh, in the handle's parentBuf,
// with its routes [from, to) replaced by a and b (a alone when b is the
// zero Entry), and hands it to d's entry for the parent's mapping word,
// expecting the head the descent saw: the old chain is freed on success
// and the new page on failure.
func (h *Handle) reserveParent(d *core.Descriptor, parent pathEntry, pv *pageView, from, to int, a, b Entry) error {
	n := len(pv.entries) - (to - from) + 2
	if cap(h.parentBuf) < n {
		h.parentBuf = make([]Entry, 0, n)
	}
	routes := h.parentBuf[:0]
	routes = append(routes, pv.entries[:from]...)
	routes = append(routes, a)
	if b != (Entry{}) {
		routes = append(routes, b)
	}
	routes = append(routes, pv.entries[to:]...)
	h.parentBuf = routes
	_, err := buildBase(h.tree, h.ah, recBaseInner, routes, pv.low, pv.high, pv.side,
		owner{d, h.tree.mappingOff(parent.lpid), parent.head, core.PolicyFreeOne})
	return err
}

// reserveRoot builds the inner root over a split's halves and hands it
// to d's entry for the root's mapping word, expecting v's head: (low, sep]
// routes to p and (sep, high] to q. The old root chain is freed on
// success.
func (h *Handle) reserveRoot(d *core.Descriptor, v *pageView, sep, p, q uint64) error {
	//lint:allow hotpath — root split happens O(log N) times over the tree's whole life; a two-entry scratch slice there is noise (§6.3)
	entries := []Entry{{Key: sep, Value: p}, {Key: v.high, Value: q}}
	_, err := buildBase(h.tree, h.ah, recBaseInner, entries, v.low, v.high, 0,
		owner{d, h.tree.mappingOff(RootLPID), uint64(v.head), core.PolicyFreeOne})
	return err
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
	pv, idx := h.resolveParent(parent, lpid)
	if idx < 0 {
		return false // stale parent snapshot
	}
	// Pick the neighbor: routes li and li+1 become one.
	li := max(idx-1, 0)
	if li+1 >= len(pv.entries) {
		return false // only child; nothing to merge with
	}
	leftLPID, rightLPID := pv.entries[li].Value, pv.entries[li+1].Value

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
	if len(lv.entries)+len(rv.entries) > t.capacity(lv.isLeaf) {
		return false // would immediately re-split
	}

	d, err := h.core.AllocateDescriptor(cbSMO)
	if err != nil {
		return false
	}
	// The left page absorbs both; its old chain is freed on success.
	//lint:allow hotpath — merge is the rarest SMO (underflow after deletes); its scratch is amortized away, pinned by TestPointOpsAllocBudget (§6.3)
	merged := make([]Entry, 0, len(lv.entries)+len(rv.entries))
	merged = append(merged, lv.entries...)
	merged = append(merged, rv.entries...)
	lv.entries = merged
	_, err = h.reservePage(d, leftLPID, lHead, core.PolicyFreeOne, &lv, 0, len(merged), lv.low, rv.high, rv.side)
	// The right page dies behind a removed marker.
	if err == nil {
		err = h.reserveRemoved(d, rightLPID, rHead)
	}
	// Parent: collapse the two routing entries into one.
	if err == nil {
		err = h.reserveParent(d, parent, &pv, li, li+2, Entry{Key: rv.high, Value: leftLPID}, Entry{})
	}
	if err != nil {
		_ = d.Discard()
		return false
	}
	ok, _ := d.Execute()
	return ok
}
