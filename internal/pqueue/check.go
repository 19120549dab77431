//lint:file-allow rawload — invariant checking inspects the raw durable image of
// a recovered (quiescent) store; going through pmwcas_read would mutate the
// state being audited and spin on exactly the dangling descriptor pointers the
// checker exists to detect.

package pqueue

import (
	"fmt"

	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

// Check audits the durable image of a (recovered, quiescent) queue
// anchored at roots. It returns every arena block the queue reaches —
// the sentinel and all linked nodes — plus the queued values in FIFO
// order for the durability oracle.
//
// Invariants verified:
//
//   - anchors are both zero (queue absent) or both set: one PMwCAS
//     creates the queue;
//   - no reachable word carries descriptor flags (recovery removes every
//     descriptor pointer);
//   - the chain from the head sentinel is cycle-free and ends exactly at
//     the node the tail anchor names (PMwCAS moves link and tail
//     together, so the tail can never lag);
//   - queued values have no reserved bits set.
func Check(dev *nvram.Device, roots nvram.Region) ([]nvram.Offset, []uint64, error) {
	load := func(off nvram.Offset, what string) (uint64, error) {
		raw := dev.Load(off)
		if raw&(core.MwCASFlag|core.RDCSSFlag) != 0 {
			return 0, fmt.Errorf("pqueue: %s holds descriptor flags: %#x", what, raw)
		}
		return raw &^ core.DirtyFlag, nil
	}

	a, err := core.CheckAnchors(dev, roots.Base, roots.Base+nvram.WordSize)
	if err != nil {
		return nil, nil, fmt.Errorf("pqueue: %w", err)
	}
	if a == nil {
		return nil, nil, nil // queue never created
	}
	head, tail := a[0], a[1]

	// Walk the chain from the sentinel; the tail anchor must name the
	// last node.
	visited := map[nvram.Offset]bool{}
	var blocks []nvram.Offset
	var values []uint64
	cur := nvram.Offset(head)
	for {
		if visited[cur] {
			return nil, nil, fmt.Errorf("pqueue: chain revisits node %#x (cycle)", cur)
		}
		visited[cur] = true
		blocks = append(blocks, cur)
		next, err := load(cur+nodeNextOff, fmt.Sprintf("next of node %#x", cur))
		if err != nil {
			return nil, nil, err
		}
		if next == 0 {
			break
		}
		cur = nvram.Offset(next)
		v, err := load(cur+nodeValueOff, fmt.Sprintf("value of node %#x", cur))
		if err != nil {
			return nil, nil, err
		}
		if !core.IsClean(v) {
			return nil, nil, fmt.Errorf("pqueue: node %#x value has reserved bits: %#x", cur, v)
		}
		values = append(values, v)
	}
	if cur != nvram.Offset(tail) {
		return nil, nil, fmt.Errorf("pqueue: tail anchor %#x does not name the last node %#x", tail, cur)
	}
	return blocks, values, nil
}
