//lint:file-allow rawload — invariant checking inspects the raw durable image of
// a recovered (quiescent) store; going through pmwcas_read would "help" — i.e.
// mutate — the very state being audited, and would spin forever on exactly the
// dangling descriptor pointers the checker exists to detect.

//lint:file-allow guardfact — the checker runs single-threaded against a quiescent image; no epoch machinery is active, so there is nothing to guard against (§4.4)

// Structural invariant checking for crash sweeps: Check walks the durable
// image of a recovered list and verifies every property a crash at an
// arbitrary device operation is required to preserve.
package skiplist

import (
	"fmt"

	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

// Check audits the durable image of a (recovered, quiescent) skip list
// anchored at roots. It returns every arena block the list reaches —
// sentinels and nodes — plus the logical contents of the base level, so
// callers can cross-check the allocator bitmap and a
// durable-linearizability oracle.
//
// Invariants verified:
//
//   - anchors are both zero (list absent) or both set: one PMwCAS
//     creates the list;
//   - sentinel keys/heights are exactly as initialization wrote them;
//   - no reachable link word carries a descriptor flag (recovery removes
//     every descriptor pointer) or a deletion mark (marked nodes are
//     unlinked by the same PMwCAS that marks them);
//   - every level is a strictly-ascending, cycle-free walk from head to
//     tail whose prev words exactly invert its next words;
//   - towers are prefix-contiguous: a node linked at level i is linked at
//     every level below, and level i's node set is a subset of level i-1's.
func Check(dev *nvram.Device, roots nvram.Region) ([]nvram.Offset, []Entry, error) {
	a, err := core.CheckAnchors(dev, roots.Base, roots.Base+nvram.WordSize)
	if err != nil {
		return nil, nil, fmt.Errorf("skiplist: %w", err)
	}
	if a == nil {
		return nil, nil, nil // list never created
	}
	head, tail := nvram.Offset(a[0]), nvram.Offset(a[1])

	if k := dev.Load(head + nodeKeyOff); k != 0 {
		return nil, nil, fmt.Errorf("skiplist: head sentinel key %#x, want 0", k)
	}
	if k := dev.Load(tail + nodeKeyOff); k != MaxKey {
		return nil, nil, fmt.Errorf("skiplist: tail sentinel key %#x, want MaxKey", k)
	}
	if h := dev.Load(head + nodeMetaOff); h != MaxHeight {
		return nil, nil, fmt.Errorf("skiplist: head sentinel height %d, want %d", h, MaxHeight)
	}
	if h := dev.Load(tail + nodeMetaOff); h != MaxHeight {
		return nil, nil, fmt.Errorf("skiplist: tail sentinel height %d, want %d", h, MaxHeight)
	}

	// Walk every level top-down; levels[i] records each node linked at
	// level i so subset (prefix-tower) checks can run afterwards.
	var levels [MaxHeight]map[nvram.Offset]bool
	var entries []Entry
	for i := MaxHeight - 1; i >= 0; i-- {
		levels[i] = map[nvram.Offset]bool{head: true}
		prevNode := head
		prevKey := uint64(0)
		for {
			raw := dev.Load(prevNode + linkOff(i, false))
			if raw&(core.MwCASFlag|core.RDCSSFlag) != 0 {
				return nil, nil, fmt.Errorf("skiplist: level %d next of node %#x holds descriptor flags: %#x", i, prevNode, raw)
			}
			next := raw &^ core.DirtyFlag
			if next&DeletedMask != 0 {
				return nil, nil, fmt.Errorf("skiplist: reachable node %#x has marked level-%d next %#x", prevNode, i, raw)
			}
			if next == 0 {
				return nil, nil, fmt.Errorf("skiplist: level-%d walk hit a zero link at node %#x before tail", i, prevNode)
			}
			node := nvram.Offset(next)
			if levels[i][node] {
				return nil, nil, fmt.Errorf("skiplist: level-%d walk revisits node %#x (cycle)", i, node)
			}
			levels[i][node] = true
			// prev must be the exact inverse of next at every level.
			back := dev.Load(node+linkOff(i, true)) &^ core.DirtyFlag
			if back&(core.MwCASFlag|core.RDCSSFlag) != 0 {
				return nil, nil, fmt.Errorf("skiplist: level %d prev of node %#x holds descriptor flags: %#x", i, node, back)
			}
			if nvram.Offset(back) != prevNode {
				return nil, nil, fmt.Errorf("skiplist: level %d prev of node %#x is %#x, want %#x", i, node, back, prevNode)
			}
			if node == tail {
				break
			}
			k := dev.Load(node + nodeKeyOff)
			if k <= prevKey || k >= MaxKey {
				return nil, nil, fmt.Errorf("skiplist: level %d key order violated: %#x after %#x", i, k, prevKey)
			}
			h := int(dev.Load(node + nodeMetaOff))
			if h < i+1 || h > MaxHeight {
				return nil, nil, fmt.Errorf("skiplist: node %#x linked at level %d but height is %d", node, i, h)
			}
			if i == 0 {
				v := dev.Load(node+nodeValueOff) &^ core.DirtyFlag
				if v&(core.FlagsMask|DeletedMask) != 0 {
					return nil, nil, fmt.Errorf("skiplist: node %#x value has reserved bits: %#x", node, v)
				}
				entries = append(entries, Entry{Key: k, Value: v})
			}
			prevNode, prevKey = node, k
		}
	}
	// Prefix towers: everything linked at level i is linked at level i-1.
	for i := MaxHeight - 1; i > 0; i-- {
		for node := range levels[i] {
			if !levels[i-1][node] {
				return nil, nil, fmt.Errorf("skiplist: node %#x linked at level %d but not at level %d", node, i, i-1)
			}
		}
	}
	blocks := make([]nvram.Offset, 0, len(levels[0]))
	for node := range levels[0] {
		blocks = append(blocks, node)
	}
	return blocks, entries, nil
}
