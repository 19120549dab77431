//lint:file-allow rawload — SMOSingleCAS is the paper's §6.2 baseline: multi-step
// SMOs published with plain single-word CAS, deliberately outside the PMwCAS
// dirty-bit protocol. The whole point of this file is the raw protocol.

package bwtree

import (
	"pmwcas/internal/nvram"
)

// ---- SMOSingleCAS protocol --------------------------------------------

// scratchWord is the owner records are activated into in SMOSingleCAS
// mode, where the crash-safe handoff is irrelevant (first reserved device
// line).
const scratchWord = nvram.WordSize

// consolidateCAS swaps a consolidated page in with one CAS, freeing the
// old chain through the epoch manager. Returns the installed base, or 0.
//
//pmwcas:requires-guard — reads the mapping word it intends to swap
func (h *Handle) consolidateCAS(lpid uint64, v *pageView) (nvram.Offset, error) {
	t := h.tree
	page, err := buildPage(t, h.ah, v, 0, len(v.entries), v.low, v.high, v.side, owner{})
	if err != nil {
		return 0, err
	}
	if !t.dev.CAS(t.mappingOff(lpid), uint64(v.head), uint64(page)) {
		_ = t.alloc.Free(page)
		return 0, nil
	}
	t.deferFree(uint64(v.head))
	return page, nil
}

// splitCAS is the paper's multi-step split (Figure 4c/4d): install the
// sibling, CAS the split delta onto P, then post the index-entry delta
// to the parent — with every traversal helping finish step three when it
// encounters an orphan split delta. The split delta goes on top of the
// page's chain, whatever its length, and the lower half is consolidated
// once the parent routes to both. (Consolidating first would let writers refill the fresh base
// before the split lands, and the page would outgrow every block.)
//
//pmwcas:requires-guard — multi-step SMO reads mappings between CAS steps
func (h *Handle) splitCAS(path []pathEntry, lpid uint64, v *pageView) (bool, error) {
	t := h.tree
	mid := len(v.entries) / 2
	sep := v.entries[mid-1].Key
	if len(path) == 0 {
		return false, h.splitRootCAS(v, mid)
	}
	qLPID, err := t.allocLPID()
	if err != nil {
		return false, err
	}
	qPage, err := buildPage(t, h.ah, v, mid, len(v.entries), sep, v.high, v.side, owner{})
	if err != nil {
		return false, err
	}
	if !t.dev.CAS(t.mappingOff(qLPID), 0, uint64(qPage)) {
		_ = t.alloc.Free(qPage)
		return false, nil
	}
	splitD, err := buildDelta(t, h.ah, recSplit, uint64(v.head), v.chain+1, [5]uint64{sep, qLPID}, 2, owner{})
	if err != nil {
		return false, err
	}
	if !t.dev.CAS(t.mappingOff(lpid), uint64(v.head), uint64(splitD)) {
		// Lost the race: unwind the sibling (nobody can have seen it —
		// the split delta that would publish it never landed).
		_ = t.alloc.Free(splitD)
		if t.dev.CAS(t.mappingOff(qLPID), uint64(qPage), 0) {
			_ = t.alloc.Free(qPage)
		}
		return false, nil
	}
	// Step 3, exactly the step other threads may need to help with. Once
	// it is done, consolidate the truncated lower half: a page an
	// ascending load leaves behind would keep its whole chain for good.
	// (Before it is done, the split delta is the help-along signal.)
	if h.helpSplitCAS(path[len(path)-1].lpid, v.low, sep, v.high, lpid, qLPID) && v.chain > 0 {
		pv := h.resolve(uint64(splitD))
		_, _ = h.consolidateCAS(lpid, &pv) // best-effort, like any consolidation
	}
	return true, nil
}

// splitRootCAS splits the root in baseline mode: fresh P2 takes the old
// chain behind a split delta, then a new inner root swaps in.
//
//pmwcas:requires-guard — reads the root mapping word mid-swap
func (h *Handle) splitRootCAS(v *pageView, mid int) error {
	t := h.tree
	sep := v.entries[mid-1].Key
	p2, err := t.allocLPID()
	if err != nil {
		return err
	}
	q, err := t.allocLPID()
	if err != nil {
		return err
	}
	qPage, err := buildPage(t, h.ah, v, mid, len(v.entries), sep, v.high, v.side, owner{})
	if err != nil {
		return err
	}
	if !t.dev.CAS(t.mappingOff(q), 0, uint64(qPage)) {
		_ = t.alloc.Free(qPage)
		return nil
	}
	splitD, err := buildDelta(t, h.ah, recSplit, uint64(v.head), v.chain+1, [5]uint64{sep, q}, 2, owner{})
	if err != nil {
		return err
	}
	if !t.dev.CAS(t.mappingOff(p2), 0, uint64(splitD)) {
		_ = t.alloc.Free(splitD)
		return nil
	}
	//lint:allow hotpath — root split happens O(log N) times over the tree's whole life; a two-entry scratch slice there is noise (§6.3)
	entries := []Entry{{Key: sep, Value: p2}, {Key: v.high, Value: q}}
	newRoot, err := buildBase(t, h.ah, recBaseInner, entries, v.low, v.high, 0, owner{})
	if err != nil {
		return err
	}
	if !t.dev.CAS(t.mappingOff(RootLPID), uint64(v.head), uint64(newRoot)) {
		// Lost: unwind everything (nothing was reachable yet).
		_ = t.alloc.Free(newRoot)
		if t.dev.CAS(t.mappingOff(p2), uint64(splitD), 0) {
			_ = t.alloc.Free(splitD)
		}
		if t.dev.CAS(t.mappingOff(q), uint64(qPage), 0) {
			_ = t.alloc.Free(qPage)
		}
	}
	return nil
}

// helpSplitCAS posts the index-entry delta for a split of child P at sep
// to the parent, if not already posted, and reports whether the parent
// now routes (sep, high] to Q. Any traversal that sees an orphan split
// delta calls this — the Bw-tree help-along protocol whose subtleties
// §6.2 catalogs. A crowded parent chain is consolidated before the
// delta goes on it.
//
//pmwcas:requires-guard — help-along reads the parent mapping word
func (h *Handle) helpSplitCAS(parentLPID, low, sep, high, pLPID, qLPID uint64) bool {
	t := h.tree
	probe := sep + 1
	if probe > high {
		return false
	}
	for attempt := 0; attempt < 8; attempt++ {
		head := h.readMapping(parentLPID)
		ps := t.search(head, probe)
		if ps.removed {
			return false
		}
		// The parent itself may have split past our separator.
		if probe > ps.high {
			if parentLPID = t.sibling(&ps); parentLPID == 0 {
				return false
			}
			continue
		}
		if ps.isLeaf || !ps.found || ps.val != pLPID {
			// Already posted, or routing moved on (a consolidation folded
			// it in, or the parent reorganized underneath us).
			return !ps.isLeaf && ps.found && ps.val == qLPID
		}
		if t.crowded(ps.chain) {
			// Shorten the parent's chain before appending to it.
			pv := h.resolve(head)
			if _, err := h.consolidateCAS(parentLPID, &pv); err != nil {
				return false
			}
			continue
		}
		idxD, err := buildDelta(t, h.ah, recIndexEntry, head, ps.chain+1,
			[5]uint64{low, sep, high, pLPID, qLPID}, 5, owner{})
		if err != nil {
			return false
		}
		if t.dev.CAS(t.mappingOff(parentLPID), head, uint64(idxD)) {
			return true
		}
		_ = t.alloc.Free(idxD)
	}
	return false
}
