//lint:file-allow rawload — invariant checking inspects the raw durable image of
// a recovered (quiescent) store; going through pmwcas_read would mutate the
// state being audited and spin on exactly the dangling descriptor pointers the
// checker exists to detect.

package bwtree

import (
	"fmt"

	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

// Check audits the durable image of a (recovered, quiescent) Bw-tree. It
// returns every arena block any mapping entry reaches — delta chains,
// base pages and removed markers — plus the tree's logical contents in
// key order, for cross-checking the allocator bitmap and a
// durable-linearizability oracle.
//
// Invariants verified:
//
//   - the next-LPID counter (mapping word 0) and the root mapping word
//     are both zero (tree absent) or both set: one PMwCAS creates the
//     tree;
//   - the next-LPID counter lies within the mapping table;
//   - no mapping word or record header carries descriptor flags
//     (recovery removes every descriptor pointer);
//   - every non-zero mapping word heads a finite chain of well-typed
//     records ending in a base page or removed marker, and no record
//     belongs to two chains;
//   - mapping words at or above the next-LPID counter are unwritten;
//   - a logical descent from the root sees exact fence containment,
//     strictly ascending keys, routed-to pages that exist and are not
//     removed, and values with no reserved bits.
func Check(dev *nvram.Device, mapping nvram.Region) ([]nvram.Offset, []Entry, error) {
	nLPID := mapping.Len / nvram.WordSize

	loadClean := func(off nvram.Offset, what string) (uint64, error) {
		raw := dev.Load(off)
		if raw&(core.MwCASFlag|core.RDCSSFlag) != 0 {
			return 0, fmt.Errorf("bwtree: %s holds descriptor flags: %#x", what, raw)
		}
		return raw &^ core.DirtyFlag, nil
	}

	a, err := core.CheckAnchors(dev, mapping.Base, mapping.Base+RootLPID*nvram.WordSize)
	if err != nil {
		return nil, nil, fmt.Errorf("bwtree: %w", err)
	}
	if a == nil {
		return nil, nil, nil // tree never created
	}
	nextLPID := a[0]
	if nextLPID <= RootLPID || nextLPID > nLPID {
		return nil, nil, fmt.Errorf("bwtree: next-LPID counter %d outside (1, %d]", nextLPID, nLPID)
	}

	// Physical pass: validate every chain any mapping word heads. This
	// must precede the logical descent — resolve assumes well-typed
	// records and would panic (or chase wild pointers) on a corrupt chain.
	seen := map[nvram.Offset]uint64{} // record -> owning LPID
	var blocks []nvram.Offset
	for lpid := uint64(1); lpid < nLPID; lpid++ {
		w, err := loadClean(mapping.Base+lpid*nvram.WordSize, fmt.Sprintf("mapping word %d", lpid))
		if err != nil {
			return nil, nil, err
		}
		if lpid >= nextLPID {
			if w != 0 {
				return nil, nil, fmt.Errorf("bwtree: mapping word %d set (%#x) but next-LPID is %d", lpid, w, nextLPID)
			}
			continue
		}
		rec := nvram.Offset(w)
		for rec != 0 {
			if owner, dup := seen[rec]; dup {
				return nil, nil, fmt.Errorf("bwtree: record %#x on the chains of both LPID %d and LPID %d", rec, owner, lpid)
			}
			seen[rec] = lpid
			blocks = append(blocks, rec)
			hdr, err := loadClean(rec+recMetaOff, fmt.Sprintf("record %#x meta", rec))
			if err != nil {
				return nil, nil, err
			}
			typ := hdr & 0xff
			if typ < recBaseLeaf || typ > recRemoved {
				return nil, nil, fmt.Errorf("bwtree: record %#x on LPID %d has corrupt type %d", rec, lpid, typ)
			}
			if typ == recBaseLeaf || typ == recBaseInner || typ == recRemoved {
				break
			}
			next, err := loadClean(rec+recNextOff, fmt.Sprintf("record %#x next", rec))
			if err != nil {
				return nil, nil, err
			}
			if next == 0 {
				return nil, nil, fmt.Errorf("bwtree: delta %#x on LPID %d has no successor", rec, lpid)
			}
			rec = nvram.Offset(next)
		}
	}

	// Logical pass: descend from the root with a throwaway Tree (resolve
	// needs only the device and the mapping geometry).
	t := &Tree{dev: dev, mapping: mapping, nLPID: nLPID, nextLPID: mapping.Base}
	h := &Handle{tree: t}
	var entries []Entry
	var descend func(lpid uint64, low, high uint64, depth int) error
	descend = func(lpid uint64, low, high uint64, depth int) error {
		if depth > 64 {
			return fmt.Errorf("bwtree: descent depth exceeds 64 at LPID %d (routing cycle?)", lpid)
		}
		if lpid == 0 || lpid >= nextLPID {
			return fmt.Errorf("bwtree: routed to invalid LPID %d", lpid)
		}
		head := dev.Load(mapping.Base+lpid*nvram.WordSize) &^ core.DirtyFlag
		if head == 0 {
			return fmt.Errorf("bwtree: routed-to LPID %d has no page", lpid)
		}
		v := h.resolve(head)
		if v.removed {
			return fmt.Errorf("bwtree: routed-to LPID %d is removed", lpid)
		}
		if v.low != low || v.high != high {
			return fmt.Errorf("bwtree: LPID %d fences (%#x,%#x], routing says (%#x,%#x]", lpid, v.low, v.high, low, high)
		}
		if v.isLeaf {
			prev := low
			for _, e := range v.entries {
				if e.Key <= prev || e.Key > high {
					return fmt.Errorf("bwtree: leaf %d key %#x violates order within (%#x,%#x]", lpid, e.Key, low, high)
				}
				if !core.IsClean(e.Value) {
					return fmt.Errorf("bwtree: leaf %d value %#x has reserved bits", lpid, e.Value)
				}
				entries = append(entries, e)
				prev = e.Key
			}
			return nil
		}
		if len(v.entries) == 0 {
			return fmt.Errorf("bwtree: inner page %d has no routing entries", lpid)
		}
		// Copy the routing entries out of the view before recursing: the
		// recursion resolves descendant pages through the same handle,
		// and resolve recycles its view buffers ring-wise (Handle.viewRing),
		// so v.entries would be overwritten under us.
		inner := append([]Entry(nil), v.entries...)
		childLow := low
		for i, e := range inner {
			if e.Key <= childLow || e.Key > high {
				return fmt.Errorf("bwtree: inner %d routing key %#x outside (%#x,%#x]", lpid, e.Key, childLow, high)
			}
			if i == len(inner)-1 && e.Key != high {
				return fmt.Errorf("bwtree: inner %d last routing key %#x does not reach fence %#x", lpid, e.Key, high)
			}
			if err := descend(e.Value, childLow, e.Key, depth+1); err != nil {
				return err
			}
			childLow = e.Key
		}
		return nil
	}
	if err := descend(RootLPID, 0, MaxKey, 0); err != nil {
		return nil, nil, err
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Key <= entries[i-1].Key {
			return nil, nil, fmt.Errorf("bwtree: global key order violated at %#x", entries[i].Key)
		}
	}
	return blocks, entries, nil
}

// Stats describes the tree's physical shape (for tests and tools).
type Stats struct {
	Height      int
	Leaves      int
	Inners      int
	Keys        int
	MaxChain    int
	UsedLPIDs   uint64
	InnerDeltas int // delta records live on inner pages' chains
	LeafDeltas  int // and on leaves' chains
}

// Stats walks the tree and reports its shape. Intended for quiescent
// moments (tests, tools); concurrent SMOs may skew counts. Like Check it
// reads mapping words raw, so a report leaves every dirty bit it meets
// where it was.
func (t *Tree) Stats(h *Handle) Stats {
	var s Stats
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()
	s.UsedLPIDs = t.dev.Load(t.nextLPID) &^ core.DirtyFlag
	level := []uint64{RootLPID}
	for len(level) > 0 {
		s.Height++
		var next []uint64
		for _, lpid := range level {
			head := t.dev.Load(t.mappingOff(lpid)) &^ core.DirtyFlag
			view := h.resolve(head)
			if view.chain > s.MaxChain {
				s.MaxChain = view.chain
			}
			if view.isLeaf {
				s.Leaves++
				s.LeafDeltas += view.chain
				s.Keys += len(view.entries)
			} else {
				s.Inners++
				s.InnerDeltas += view.chain
				for _, e := range view.entries {
					next = append(next, e.Value)
				}
			}
		}
		level = next
	}
	return s
}
