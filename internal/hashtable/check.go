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
// (Store.Stats, the reclaim tests) can observe interior-bucket overhead
// without re-walking the image.
type CheckStats struct {
	Buckets      int // arena blocks the table owns (live + sealed)
	Live         int // unsealed buckets holding the table's contents
	Sealed       int // sealed interior buckets not yet reclaimed
	SeveredEdges int // tombstoned edge words left by reclamation
}

// Check audits the durable image of a (recovered, quiescent) hash table
// anchored at roots with the directory at dir. It returns every arena
// block the table reaches — live buckets and sealed interior buckets —
// plus the table's logical contents and structure counts, so callers can
// cross-check the allocator bitmap and a durable-linearizability oracle.
//
// Since sealed-bucket reclamation (reclaim.go) the buckets form a
// *forest*, not a single tree: reclaiming a tree's root tombstones its
// children's parent words with reclaimedPtr, orphaning them into roots
// of their own subtrees. Only roots are ever reclaimed, so tombstones
// appear exclusively in parent words — every standing bucket's child
// pointers name standing buckets, which is precisely what keeps the
// whole forest reachable from the directory. Every invariant is checked
// per tree, with each tree's hash-suffix class anchored by "seeds" — the
// directory entries that name its buckets and the keys stored in them,
// both of which pin an absolute class. A tree with no seeds has no
// routable content, so it has no class constraints to violate.
//
// Invariants verified:
//
//   - the depth word, the geometry word and dir[0] are all zero (table
//     absent) or all set: one PMwCAS creates the table;
//   - the durable slot geometry is sane and every live directory entry
//     names a bucket whose class covers the entry's whole suffix class
//     (local depth <= global depth);
//   - the buckets form a binary radix forest: at most one parentless
//     root (depth 0), every orphan root (parent tombstoned) at depth
//     >= 1, child depth = parent depth + 1, parent/child words invert
//     each other, sealed buckets have both children and live buckets
//     none, and no child word is ever a tombstone (roots-only reclaim);
//   - all class seeds within a tree agree: every key sits in the bucket
//     its hash suffix routes to and every directory entry's index suffix
//     matches the class of the bucket it names;
//   - no reachable word carries a descriptor flag (recovery removes every
//     descriptor pointer);
//   - every key appears in exactly one live bucket and pairs a clean
//     value (free slots of live buckets are fully zero).
func Check(dev *nvram.Device, roots, dir nvram.Region) ([]nvram.Offset, []Entry, CheckStats, error) {
	depthWord := roots.Base
	geomWord := roots.Base + 2*nvram.WordSize

	load := func(off nvram.Offset) uint64 { return dev.Load(off) &^ core.DirtyFlag }

	var stats CheckStats
	a, err := core.CheckAnchors(dev, depthWord, geomWord, dir.Base)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("hashtable: %w", err)
	}
	if a == nil {
		return nil, nil, stats, nil // table never created
	}
	dw, slots := a[0], a[1]
	gdepth := int(dw) - 1
	maxDepth := 0
	for d := dir.Len / nvram.WordSize; d > 1; d >>= 1 {
		maxDepth++
	}
	if gdepth > maxDepth {
		return nil, nil, stats, fmt.Errorf("hashtable: global depth %d exceeds directory capacity %d", gdepth, maxDepth)
	}
	if slots > 255 {
		return nil, nil, stats, fmt.Errorf("hashtable: durable slot geometry %d outside [1,255]", slots)
	}

	// Collect every bucket the directory reaches, walking child pointers
	// down and parent pointers up: directory repair can swing entries past
	// sealed ancestors, so ancestors are only reachable through parents.
	// A tombstoned parent word (reclaimedPtr) is not followed — the bucket
	// behind it was freed, and the bucket holding it is a forest root.
	type bucketInfo struct {
		meta, parent uint64
		c0, c1       nvram.Offset
		// forest bookkeeping, filled in by the DFS below
		root nvram.Offset // root of this bucket's tree
		rel  uint64       // class bits above the root's depth
	}
	buckets := make(map[nvram.Offset]*bucketInfo)
	var pending []nvram.Offset
	for j := nvram.Offset(0); j < 1<<uint(gdepth); j++ {
		e := load(dir.Base + j*nvram.WordSize)
		if e == 0 {
			return nil, nil, stats, fmt.Errorf("hashtable: zero directory entry %d at global depth %d", j, gdepth)
		}
		if e == reclaimedPtr {
			return nil, nil, stats, fmt.Errorf("hashtable: directory entry %d holds the reclaim tombstone", j)
		}
		pending = append(pending, nvram.Offset(e))
	}
	loadPtr := func(off nvram.Offset, what string, b nvram.Offset) (nvram.Offset, error) {
		raw := dev.Load(off)
		if raw&(core.MwCASFlag|core.RDCSSFlag) != 0 {
			return 0, fmt.Errorf("hashtable: %s of bucket %#x holds descriptor flags: %#x", what, b, raw)
		}
		return nvram.Offset(raw &^ core.DirtyFlag), nil
	}
	for len(pending) > 0 {
		b := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		if _, ok := buckets[b]; ok {
			continue
		}
		rawMeta := dev.Load(b + bucketMetaOff)
		if rawMeta&(core.MwCASFlag|core.RDCSSFlag) != 0 {
			return nil, nil, stats, fmt.Errorf("hashtable: meta of bucket %#x holds descriptor flags: %#x", b, rawMeta)
		}
		info := &bucketInfo{meta: rawMeta &^ core.DirtyFlag}
		var err error
		if info.c0, err = loadPtr(b+bucketChild0Off, "child0", b); err != nil {
			return nil, nil, stats, err
		}
		if info.c1, err = loadPtr(b+bucketChild1Off, "child1", b); err != nil {
			return nil, nil, stats, err
		}
		if p, err := loadPtr(b+bucketParentOff, "parent", b); err != nil {
			return nil, nil, stats, err
		} else {
			info.parent = uint64(p)
		}
		buckets[b] = info
		for _, c := range [2]nvram.Offset{info.c0, info.c1} {
			if c == reclaimedPtr {
				return nil, nil, stats, fmt.Errorf("hashtable: child word of bucket %#x holds the reclaim tombstone", b)
			}
			if c != 0 {
				pending = append(pending, c)
			}
		}
		if info.parent == reclaimedPtr {
			stats.SeveredEdges++
		} else if info.parent != 0 {
			pending = append(pending, nvram.Offset(info.parent))
		}
	}

	// Forest roots: at most one bucket whose parent word was never set
	// (the original depth-0 bucket), plus any number of orphans whose
	// parent was reclaimed (necessarily depth >= 1 — only a split's child
	// ever gets a tombstone).
	var dfsRoots []nvram.Offset
	parentless := nvram.Offset(0)
	for b, info := range buckets {
		switch info.parent {
		case 0:
			if parentless != 0 {
				return nil, nil, stats, fmt.Errorf("hashtable: two parentless buckets %#x and %#x", parentless, b)
			}
			if d := metaDepth(info.meta); d != 0 {
				return nil, nil, stats, fmt.Errorf("hashtable: parentless bucket %#x has depth %d, want 0", b, d)
			}
			parentless = b
			dfsRoots = append(dfsRoots, b)
		case reclaimedPtr:
			if d := metaDepth(info.meta); d < 1 {
				return nil, nil, stats, fmt.Errorf("hashtable: orphan bucket %#x has depth %d, want >= 1", b, d)
			}
			dfsRoots = append(dfsRoots, b)
		}
	}
	if len(dfsRoots) == 0 && len(buckets) > 0 {
		return nil, nil, stats, fmt.Errorf("hashtable: no root bucket (parent cycle)")
	}

	// DFS each tree, assigning every bucket its class bits relative to its
	// root and verifying tree shape and slot contents as it goes.
	type visit struct {
		b    nvram.Offset
		root nvram.Offset
		rel  uint64
	}
	liveKeys := make(map[uint64]nvram.Offset)
	var entries []Entry
	// A seed pins an absolute suffix class on one bucket: class has
	// depth(b) significant bits.
	type seed struct {
		b     nvram.Offset
		class uint64
		what  string
	}
	var seeds []seed
	visited := make(map[nvram.Offset]bool)
	var stack []visit
	for _, r := range dfsRoots {
		stack = append(stack, visit{r, r, 0})
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[v.b] {
			return nil, nil, stats, fmt.Errorf("hashtable: bucket %#x reached twice (not a forest)", v.b)
		}
		visited[v.b] = true
		info := buckets[v.b]
		info.root, info.rel = v.root, v.rel
		depth := metaDepth(info.meta)
		if depth > maxBucketDepth {
			return nil, nil, stats, fmt.Errorf("hashtable: bucket %#x depth %d exceeds max %d", v.b, depth, maxBucketDepth)
		}
		sealed := metaSealed(info.meta)
		// A sealed bucket's child words were written by its split and are
		// never tombstoned (only roots are reclaimed, and reclaiming a
		// root touches its children's parent words). A live bucket has
		// neither child.
		if sealed != (info.c0 != 0) || sealed != (info.c1 != 0) {
			return nil, nil, stats, fmt.Errorf("hashtable: bucket %#x sealed=%v but children (%#x, %#x)", v.b, sealed, info.c0, info.c1)
		}
		if sealed {
			stats.Sealed++
		} else {
			stats.Live++
		}
		for i := 0; i < int(slots); i++ {
			key := load(slotKeyOff(v.b, i))
			val := dev.Load(slotValOff(v.b, i))
			if key&(core.MwCASFlag|core.RDCSSFlag) != 0 || val&(core.MwCASFlag|core.RDCSSFlag) != 0 {
				return nil, nil, stats, fmt.Errorf("hashtable: slot %d of bucket %#x holds descriptor flags: (%#x, %#x)", i, v.b, key, val)
			}
			val &^= core.DirtyFlag
			if key == 0 {
				// Sealed buckets keep their pre-split contents verbatim, so
				// only live buckets promise zero values behind zero keys.
				if val != 0 && !sealed {
					return nil, nil, stats, fmt.Errorf("hashtable: free slot %d of bucket %#x has value %#x", i, v.b, val)
				}
				continue
			}
			if key >= MaxKey {
				return nil, nil, stats, fmt.Errorf("hashtable: key %#x in bucket %#x out of range", key, v.b)
			}
			seeds = append(seeds, seed{v.b, mix64(key) & (1<<uint(depth) - 1), fmt.Sprintf("key %#x", key)})
			if !sealed {
				if prev, dup := liveKeys[key]; dup {
					return nil, nil, stats, fmt.Errorf("hashtable: key %#x live in buckets %#x and %#x", key, prev, v.b)
				}
				liveKeys[key] = v.b
				entries = append(entries, Entry{Key: key, Value: val})
			}
		}
		if !sealed {
			continue
		}
		for bit, c := range []nvram.Offset{info.c0, info.c1} {
			ci, ok := buckets[c]
			if !ok {
				return nil, nil, stats, fmt.Errorf("hashtable: child %#x of bucket %#x not collected", c, v.b)
			}
			if nvram.Offset(ci.parent) != v.b {
				return nil, nil, stats, fmt.Errorf("hashtable: child %#x parent word %#x, want %#x", c, ci.parent, v.b)
			}
			if cd := metaDepth(ci.meta); cd != depth+1 {
				return nil, nil, stats, fmt.Errorf("hashtable: child %#x depth %d under parent depth %d", c, cd, depth)
			}
			stack = append(stack, visit{c, v.root, v.rel | uint64(bit)<<uint(depth)})
		}
	}
	for b := range buckets {
		if !visited[b] {
			return nil, nil, stats, fmt.Errorf("hashtable: bucket %#x not reachable from any root", b)
		}
	}
	stats.Buckets = len(buckets)

	// Every live directory entry must name a collected bucket whose class
	// is the entry index's own suffix — the hint property all routing and
	// repair correctness rests on. The entry is recorded as a seed; the
	// agreement pass below turns it into the class check.
	for j := nvram.Offset(0); j < 1<<uint(gdepth); j++ {
		e := nvram.Offset(load(dir.Base + j*nvram.WordSize))
		info, ok := buckets[e]
		if !ok {
			return nil, nil, stats, fmt.Errorf("hashtable: directory entry %d names unknown bucket %#x", j, e)
		}
		depth := metaDepth(info.meta)
		if depth > gdepth {
			return nil, nil, stats, fmt.Errorf("hashtable: directory entry %d names bucket %#x with depth %d > global %d", j, e, depth, gdepth)
		}
		seeds = append(seeds, seed{e, uint64(j) & (1<<uint(depth) - 1), fmt.Sprintf("directory entry %d", j)})
	}

	// Seed agreement: within a tree, every seed must pin the same root
	// class. A seed on bucket b (class C, depth(b) bits) decomposes as
	// C = rootClass | rel(b): its high bits must reproduce the DFS path
	// and its low rootDepth bits are a root-class candidate all seeds of
	// the tree share. Trees without seeds are unconstrained — they hold
	// no keys and no directory entry routes to them.
	rootClass := make(map[nvram.Offset]uint64)
	rootWitness := make(map[nvram.Offset]string)
	for _, s := range seeds {
		info := buckets[s.b]
		rd := metaDepth(buckets[info.root].meta)
		if s.class>>uint(rd) != info.rel>>uint(rd) {
			return nil, nil, stats, fmt.Errorf("hashtable: %s pins bucket %#x to class %#x, path from root %#x gives %#x",
				s.what, s.b, s.class, info.root, info.rel)
		}
		rc := s.class & (1<<uint(rd) - 1)
		if prev, ok := rootClass[info.root]; !ok {
			rootClass[info.root] = rc
			rootWitness[info.root] = s.what
		} else if prev != rc {
			return nil, nil, stats, fmt.Errorf("hashtable: %s pins root %#x to class %#x, but %s pinned %#x",
				s.what, info.root, rc, rootWitness[info.root], prev)
		}
	}

	blocks := make([]nvram.Offset, 0, len(buckets))
	for b := range buckets {
		blocks = append(blocks, b)
	}
	return blocks, entries, stats, nil
}
