//lint:file-allow rawload — SMOSingleCAS is the paper's §6.2 baseline: multi-step
// SMOs published with plain single-word CAS, deliberately outside the PMwCAS
// dirty-bit protocol. The whole point of this file is the raw protocol.

package bwtree

import (
	"pmwcas/internal/nvram"
)

// ---- SMOSingleCAS protocol --------------------------------------------

// scratchWord receives allocator deliveries in volatile mode, where the
// crash-safe handoff is irrelevant (first reserved device line).
const scratchWord = nvram.WordSize

// consolidateCAS swaps a consolidated page in with one CAS, freeing the
// old chain through the epoch manager. Returns the installed base, or 0.
//
//pmwcas:requires-guard — reads the mapping word it intends to swap
func (h *Handle) consolidateCAS(lpid uint64, v *pageView) nvram.Offset {
	t := h.tree
	var page nvram.Offset
	var err error
	if v.isLeaf {
		page, err = buildLeafInto(t, h.ah, v.leafEntries, v.low, v.high, v.side, scratchWord)
	} else {
		page, err = buildInnerInto(t, h.ah, v.innerEntries, v.low, v.high, v.side, scratchWord)
	}
	if err != nil {
		return 0
	}
	if !t.dev.CAS(t.mappingOff(lpid), uint64(v.head), uint64(page)) {
		_ = t.alloc.Free(page)
		return 0
	}
	t.deferFree(uint64(v.head))
	return page
}

// splitCAS is the paper's multi-step split (Figure 4c/4d): install the
// sibling, CAS the split delta onto P, then post the index-entry delta
// to the parent — with every traversal helping finish step three when it
// encounters an orphan split delta.
//
//pmwcas:requires-guard — multi-step SMO reads mappings between CAS steps
func (h *Handle) splitCAS(path []pathEntry, lpid uint64, v *pageView) bool {
	t := h.tree
	var sep uint64
	if v.isLeaf {
		sep = v.leafEntries[len(v.leafEntries)/2-1].Key
	} else {
		sep = v.innerEntries[len(v.innerEntries)/2-1].Key
	}
	if sep == v.high {
		return false
	}
	if lpid == RootLPID && len(path) == 0 {
		h.splitRootCAS(v, sep)
		return false
	}
	if len(path) == 0 {
		return false
	}
	qLPID, err := t.allocLPID()
	if err != nil {
		return false
	}
	qPage, err := buildUpperHalf(t, h.ah, v, sep, scratchWord)
	if err != nil {
		return false
	}
	if !t.dev.CAS(t.mappingOff(qLPID), 0, uint64(qPage)) {
		_ = t.alloc.Free(qPage)
		return false
	}
	splitD, err := buildSplitDelta(t, h.ah, sep, qLPID, uint64(v.head), v.chain+1, scratchWord)
	if err != nil {
		return false
	}
	if !t.dev.CAS(t.mappingOff(lpid), uint64(v.head), uint64(splitD)) {
		// Lost the race: unwind the sibling (nobody can have seen it —
		// the split delta that would publish it never landed).
		_ = t.alloc.Free(splitD)
		if t.dev.CAS(t.mappingOff(qLPID), uint64(qPage), 0) {
			_ = t.alloc.Free(qPage)
		}
		return false
	}
	// Step 3, exactly the step other threads may need to help with.
	h.helpSplitCAS(path[len(path)-1].lpid, v.low, sep, v.high, lpid, qLPID)
	return true
}

// splitRootCAS splits the root in baseline mode: fresh P2 takes the old
// chain behind a split delta, then a new inner root swaps in.
//
//pmwcas:requires-guard — reads the root mapping word mid-swap
func (h *Handle) splitRootCAS(v *pageView, sep uint64) {
	t := h.tree
	p2, err := t.allocLPID()
	if err != nil {
		return
	}
	q, err := t.allocLPID()
	if err != nil {
		return
	}
	qPage, err := buildUpperHalf(t, h.ah, v, sep, scratchWord)
	if err != nil {
		return
	}
	if !t.dev.CAS(t.mappingOff(q), 0, uint64(qPage)) {
		_ = t.alloc.Free(qPage)
		return
	}
	splitD, err := buildSplitDelta(t, h.ah, sep, q, uint64(v.head), v.chain+1, scratchWord)
	if err != nil {
		return
	}
	if !t.dev.CAS(t.mappingOff(p2), 0, uint64(splitD)) {
		_ = t.alloc.Free(splitD)
		return
	}
	//lint:allow hotpath — root split happens O(log N) times over the tree's whole life; a two-entry scratch slice there is noise (§6.3)
	entries := []InnerEntry{{Key: sep, Child: p2}, {Key: v.high, Child: q}}
	newRoot, err := buildInnerInto(t, h.ah, entries, v.low, v.high, 0, scratchWord)
	if err != nil {
		return
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
}

// helpSplitCAS posts the index-entry delta for a split of child P at sep
// to the parent, if not already posted. Any traversal that sees an
// orphan split delta calls this — the Bw-tree help-along protocol whose
// subtleties §6.2 catalogs.
//
//pmwcas:requires-guard — help-along reads the parent mapping word
func (h *Handle) helpSplitCAS(parentLPID, low, sep, high, pLPID, qLPID uint64) {
	t := h.tree
	probe := sep + 1
	if probe > high {
		return
	}
	for attempt := 0; attempt < 8; attempt++ {
		head := h.readMapping(parentLPID)
		ps := t.search(head, probe)
		if ps.removed {
			return
		}
		// The parent itself may have split past our separator.
		if probe > ps.high {
			if ps.side == 0 {
				return
			}
			parentLPID = ps.side
			continue
		}
		if ps.isLeaf || !ps.found || ps.val == qLPID {
			return // already posted (or parent reorganized underneath us)
		} else if ps.val != pLPID {
			return // routing moved on; a consolidation already folded it in
		}
		idxD, err := buildIndexEntryDelta(t, h.ah, low, sep, high, pLPID, qLPID,
			head, ps.chain+1, scratchWord)
		if err != nil {
			return
		}
		if t.dev.CAS(t.mappingOff(parentLPID), head, uint64(idxD)) {
			return
		}
		_ = t.alloc.Free(idxD)
	}
}
