//lint:file-allow rawload — invariant checking inspects the raw durable image of
// a recovered (quiescent) store; going through pmwcas_read would "help" — i.e.
// mutate — the very state being audited, and would spin forever on exactly the
// dangling descriptor pointers the checker exists to detect.

//lint:file-allow guardfact — the checker runs single-threaded against a quiescent image; no epoch machinery is active, so there is nothing to guard against (§4.4)

// Structural invariant checking for crash sweeps: Check walks the durable
// image of a recovered hash table and verifies every property a crash at
// an arbitrary device operation is required to preserve.
package hashtable

import (
	"fmt"

	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

// CheckStats summarizes the structure Check walked, so callers
// (Store.CheckInvariants, the space tests) can count the table's blocks
// without re-walking the image.
type CheckStats struct {
	Buckets int // arena blocks the table owns
	Live    int // buckets routing a hash class: all of them, as no split retires its bucket
}

// Check audits the durable image of a (recovered, quiescent) hash table
// anchored at roots. It returns every arena block the table reaches,
// plus the table's logical contents and structure counts, so callers can
// cross-check the allocator bitmap and a durable-linearizability oracle.
// The directory is volatile, so there is none to audit.
//
// The buckets form a tree rooted at the first bucket (creation depth 0,
// named by the root anchor): a bucket's sib word heads the chain of the
// siblings it split off, newest first, linked through their prev words.
// Check walks that tree, deriving each bucket's creation class from its
// place in it. Invariants verified:
//
//   - the root and geometry words are both zero (table absent) or both
//     set: one PMwCAS creates the table;
//   - the durable slot geometry is sane, and the root anchor names a
//     bucket created at depth 0;
//   - every bucket's creation depth c is at most its depth L, its chain
//     holds exactly its siblings created at depths L, L-1, ..., c+1, and
//     no bucket is reached twice;
//   - every key lies in its bucket's creation class, keys outside the
//     bucket's current class are ghosts, and every live key appears in
//     exactly one bucket and pairs a clean value (empty slots are fully
//     zero, the header's spare word is zero);
//   - no reachable word carries a descriptor flag (recovery removes every
//     descriptor pointer).
func Check(dev *nvram.Device, roots nvram.Region) ([]nvram.Offset, []Entry, CheckStats, error) {
	var stats CheckStats
	a, err := core.CheckAnchors(dev, roots.Base, roots.Base+nvram.WordSize)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("hashtable: %w", err)
	}
	if a == nil {
		return nil, nil, stats, nil // table never created
	}
	first, slots := a[0], a[1]
	if slots > 255 {
		return nil, nil, stats, fmt.Errorf("hashtable: durable slot geometry %d outside [1,255]", slots)
	}
	word := func(off nvram.Offset, what string, b nvram.Offset) (uint64, error) {
		raw := dev.Load(off)
		if raw&(core.MwCASFlag|core.RDCSSFlag) != 0 {
			return 0, fmt.Errorf("hashtable: %s of bucket %#x holds descriptor flags: %#x", what, b, raw)
		}
		return raw &^ core.DirtyFlag, nil
	}

	buckets := make(map[nvram.Offset]bool)
	liveKeys := make(map[uint64]nvram.Offset)
	var entries []Entry
	type visit struct {
		b       nvram.Offset
		class   uint64
		created int
	}
	stack := []visit{{nvram.Offset(first), 0, 0}}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if buckets[v.b] {
			return nil, nil, stats, fmt.Errorf("hashtable: bucket %#x reached twice (sibling chains do not form a tree)", v.b)
		}
		meta, err := word(v.b+bucketMetaOff, "meta", v.b)
		if err != nil {
			return nil, nil, stats, err
		}
		c, depth := metaCreated(meta), metaDepth(meta)
		if c != v.created {
			return nil, nil, stats, fmt.Errorf("hashtable: bucket %#x was created at depth %d, its chain link says %d", v.b, c, v.created)
		}
		if depth < c || depth > maxBucketDepth {
			return nil, nil, stats, fmt.Errorf("hashtable: bucket %#x depth %d outside [%d,%d]", v.b, depth, c, maxBucketDepth)
		}
		spare, err := word(v.b+bucketSpareOff, "spare header word", v.b)
		if err != nil {
			return nil, nil, stats, err
		}
		if spare != 0 {
			return nil, nil, stats, fmt.Errorf("hashtable: spare header word of bucket %#x holds %#x", v.b, spare)
		}
		buckets[v.b] = true
		for i := 0; i < int(slots); i++ {
			key, err := word(slotKeyOff(v.b, i), "slot key", v.b)
			if err != nil {
				return nil, nil, stats, err
			}
			val, err := word(slotValOff(v.b, i), "slot value", v.b)
			if err != nil {
				return nil, nil, stats, err
			}
			if key == 0 {
				if val != 0 {
					return nil, nil, stats, fmt.Errorf("hashtable: empty slot %d of bucket %#x has value %#x", i, v.b, val)
				}
				continue
			}
			if key >= MaxKey {
				return nil, nil, stats, fmt.Errorf("hashtable: key %#x in bucket %#x out of range", key, v.b)
			}
			kh := mix64(key)
			if kh&(1<<uint(c)-1) != v.class {
				return nil, nil, stats, fmt.Errorf("hashtable: key %#x in bucket %#x lies outside its creation class %#x/%d", key, v.b, v.class, c)
			}
			if strayBits(kh, meta) != 0 {
				continue // a ghost: its split moved the key to a sibling
			}
			if prev, dup := liveKeys[key]; dup {
				return nil, nil, stats, fmt.Errorf("hashtable: key %#x live in buckets %#x and %#x", key, prev, v.b)
			}
			liveKeys[key] = v.b
			entries = append(entries, Entry{Key: key, Value: val})
		}
		// The chain: the siblings split off at depths depth-1 down to c,
		// created one deeper each, newest first.
		s, err := word(v.b+bucketSibOff, "sib", v.b)
		if err != nil {
			return nil, nil, stats, err
		}
		for l := depth; l > c; l-- {
			if s == 0 {
				return nil, nil, stats, fmt.Errorf("hashtable: chain of bucket %#x (depth %d) ends before its sibling created at depth %d", v.b, depth, l)
			}
			stack = append(stack, visit{nvram.Offset(s), v.class | 1<<uint(l-1), l})
			if s, err = word(nvram.Offset(s)+bucketPrevOff, "prev", nvram.Offset(s)); err != nil {
				return nil, nil, stats, err
			}
		}
		if s != 0 {
			return nil, nil, stats, fmt.Errorf("hashtable: chain of bucket %#x runs past its creation depth %d to %#x", v.b, c, s)
		}
	}
	stats.Buckets = len(buckets)
	stats.Live = len(buckets)

	blocks := make([]nvram.Offset, 0, len(buckets))
	for b := range buckets {
		blocks = append(blocks, b)
	}
	return blocks, entries, stats, nil
}
