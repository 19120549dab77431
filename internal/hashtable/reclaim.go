// Sealed-bucket reclamation: the directory-entry CAS-with-verify
// protocol that frees fully-drained interior buckets of the radix tree.
//
// A sealed bucket is pure routing state — its slots were migrated into
// its children by the split that sealed it, so the only thing keeping it
// alive is that directory entries and tree edges may still name it.
// Without reclamation every split leaks one bucket (~7% of the table per
// doubling generation).
//
// # Roots-only discipline
//
// Only forest roots are ever reclaimed: buckets whose parent word is 0
// (the original depth-0 bucket) or reclaimedPtr (orphaned when their own
// parent was reclaimed). Freeing an interior bucket would tombstone
// edges in the middle of a tree, and a sealed region whose entries have
// all been scrubbed away and whose boundary edges are all tombstones
// becomes unreachable while still allocated — a permanent leak the
// store's allocator audit rejects. Restricting reclaim to roots keeps
// every tree's interior edges intact, so every standing bucket stays
// reachable from the directory entries of its tree's live leaves, and
// the tombstones appear only in parent words at the tops of trees.
// Reclamation still keeps up with splits: each split walks up its
// bucket's (short) parent chain and reclaims the tree's root, freeing
// one interior bucket per interior bucket created once the directory is
// deep enough.
//
// # The protocol
//
// Removing a sealed root B at depth L:
//
//  1. Scrub. Every live directory entry in B's suffix class (j ≡ class
//     mod 2^L) is stepped from B to the matching child with durable
//     single-word PCASes until no entry in the class names B — so no new
//     walk can enter B through the directory (walks that can reach B
//     come only from entries in B's own class; see locate).
//  2. Plant. One scrubbed entry j* is CASed back to B. This is a legal
//     hint regression (B still routes the entry's whole class through
//     its children) whose only purpose is to give the reclaim PMwCAS a
//     word whose old value is B, so the descriptor's memory policy can
//     free B crash-atomically.
//  3. One 3-word PMwCAS: { dir[j*]: B → v* (FreeOldOnSuccess),
//     c0.parent: B → reclaimedPtr, c1.parent: B → reclaimedPtr }.
//     Success repairs the planted entry, orphans both children into
//     forest roots of their own, and frees B through the epoch-deferred
//     finalize — readers that could still hold B entered their guards
//     before the commit and are protected; readers arriving later cannot
//     reach B at all. Failure (a racing walker compressed the planted
//     entry) frees nothing and leaves every word valid; the reclaim is
//     simply retried on a later split or sweep.
//
// Crash safety: the scrub is ordinary durable hint repair (any
// historical entry value is a valid hint); the plant is volatile (a
// crash reverts it to the scrubbed value, and an evicted plant is itself
// a valid hint); the PMwCAS is crash-atomic and its free replays through
// §5.2 recovery exactly like every other policy free.
//
// Reclamation and directory doubling exclude each other through the
// table's growClaim: a doubler's plain-store copy of the live half could
// otherwise republish a stale entry naming B after the scrub verified
// the class was clean. The claim also serializes reclaims against each
// other, which is what makes the standing-verify below sound.
package hashtable

import (
	"time"

	"pmwcas/internal/core"
	"pmwcas/internal/metrics"
	"pmwcas/internal/nvram"
)

// reclaimedPtr marks a severed up-edge: the parent word of a bucket
// whose parent was reclaimed, turning the bucket into a forest root. It
// is never a valid block offset (offset 1 is inside the descriptor pool
// region and unaligned) and is distinguishable from 0 (never had a
// parent). Child words never hold it — only roots are reclaimed, so a
// standing bucket's children always stand.
const reclaimedPtr uint64 = 1

// scrubTries bounds the per-entry CAS retry loop in the scrub phase;
// contention beyond it just abandons the reclaim attempt.
const scrubTries = 64

// tryReclaim attempts to free sealed forest root b, whose suffix class
// and local depth the caller derived from a hash that routes through it.
// Best-effort: any verification failure or lost race abandons the
// attempt with nothing freed and nothing corrupted. Returns whether b
// was reclaimed.
//
// The caller must have held its epoch guard continuously since it last
// observed b standing (reachable); the guard keeps b's memory from
// being recycled, and the standing re-verify under the claim rules out
// a reclaim that committed in between.
//
//pmwcas:requires-guard — reads bucket words and directory hints the epoch may hand to late readers
func (h *Handle) tryReclaim(b nvram.Offset, class uint64, depth int) bool {
	t := h.t
	if !t.growClaim.CompareAndSwap(false, true) {
		return false // a doubling or another reclaim is in flight
	}
	defer t.growClaim.Store(false)
	if metrics.On() {
		t0 := time.Now()
		defer mReclaimNs.ObserveSince(h.lane, t0)
	}

	g := int(core.PCASRead(t.dev, t.depthWord)) - 1
	if depth >= g {
		// The scrub steps entries to depth L+1, so their classes must be
		// indexable: reclaim needs L+1 <= G.
		return false
	}
	meta := h.core.Read(b + bucketMetaOff)
	if !metaSealed(meta) || metaDepth(meta) != depth {
		return false
	}
	parent := h.core.Read(b + bucketParentOff)
	if parent != 0 && parent != reclaimedPtr {
		return false // not a forest root; see the discipline above
	}
	c0 := h.core.Read(b + bucketChild0Off)
	c1 := h.core.Read(b + bucketChild1Off)
	if c0 == 0 || c0 == reclaimedPtr || c1 == 0 || c1 == reclaimedPtr {
		return false
	}
	// Standing verify: b's children point back to b iff b has not been
	// reclaimed (the reclaim PMwCAS tombstones exactly these words, and
	// the claim serializes all reclaims, so the answer cannot change
	// until we release it). Without this, a caller whose bucket was
	// reclaimed between its last observation and our claim could plant a
	// freed block back into the directory.
	if h.core.Read(nvram.Offset(c0)+bucketParentOff) != uint64(b) ||
		h.core.Read(nvram.Offset(c1)+bucketParentOff) != uint64(b) {
		return false
	}

	// Phase 1: scrub. Durably step every live entry of b's class off b,
	// so only walks already in flight can still reach it.
	for j := class; j < uint64(1)<<uint(g); j += uint64(1) << uint(depth) {
		off := t.dirBase + nvram.Offset(j)*nvram.WordSize
		tries := 0
		for {
			if tries++; tries > scrubTries {
				return false
			}
			e := nvram.Offset(h.dirRead(off))
			if e != b {
				// b is a root: no standing bucket is shallower in its
				// class, so the entry names a descendant — already clean.
				// Anything else is an invariant breach; abort harmlessly.
				if e == 0 || e == reclaimedPtr || metaDepth(h.core.Read(e+bucketMetaOff)) <= depth {
					return false
				}
				break
			}
			c := c0
			if (j>>uint(depth))&1 == 1 {
				c = c1
			}
			core.PCASFlush(t.dev, off, uint64(e), c)
		}
	}
	// The scrubbed entries must be durable before the PMwCAS below can
	// free b: a crash must never persist the commit without them.
	t.dev.Fence()

	// Phase 2: plant b back into one scrubbed entry so the reclaim
	// PMwCAS has a word whose old value is b.
	off0 := t.dirBase + nvram.Offset(class)*nvram.WordSize
	vstar := h.dirRead(off0)
	if vstar == uint64(b) || vstar == 0 {
		return false // scrub just verified otherwise; be paranoid, not clever
	}
	if !core.PCAS(t.dev, off0, vstar, uint64(b)) {
		return false // racing walker moved the entry; retry another time
	}

	// Phase 3: one PMwCAS repairs the plant (freeing b), and orphans the
	// children into forest roots.
	d, err := h.core.AllocateDescriptor(0)
	if err != nil {
		// Undo the plant opportunistically and give up; a left-over plant
		// is still a valid hint that lazy repair will compress away.
		core.PCAS(t.dev, off0, uint64(b), vstar)
		return false
	}
	if err := d.AddWordWithPolicy(off0, uint64(b), vstar, core.PolicyFreeOldOnSuccess); err != nil {
		d.Discard()
		core.PCAS(t.dev, off0, uint64(b), vstar)
		return false
	}
	if err := d.AddWord(nvram.Offset(c0)+bucketParentOff, uint64(b), reclaimedPtr); err != nil {
		d.Discard()
		core.PCAS(t.dev, off0, uint64(b), vstar)
		return false
	}
	if err := d.AddWord(nvram.Offset(c1)+bucketParentOff, uint64(b), reclaimedPtr); err != nil {
		d.Discard()
		core.PCAS(t.dev, off0, uint64(b), vstar)
		return false
	}
	ok, err := d.Execute()
	if err != nil || !ok {
		return false
	}
	t.reclaims.Add(1)
	return true
}

// reclaimRootOf walks up the (intact) parent chain from bucket b — which
// the caller has observed standing under its current guard — and tries
// to reclaim the root of b's tree. Splits call this so reclamation keeps
// pace with interior growth: each committed split frees at most one
// interior bucket, and creates exactly one.
//
//pmwcas:requires-guard — walks parent words of buckets the epoch may be about to recycle
func (h *Handle) reclaimRootOf(b nvram.Offset, hash uint64) bool {
	// The walk reads only standing-or-deferred memory: b stands under our
	// guard, and a parent word naming p proves p's reclaim had not
	// committed when the word was read (reclaiming p tombstones it), so
	// p's memory is at worst epoch-deferred, never recycled.
	r := b
	for {
		p := h.core.Read(r + bucketParentOff)
		if p == 0 || p == reclaimedPtr {
			break
		}
		r = nvram.Offset(p)
	}
	meta := h.core.Read(r + bucketMetaOff)
	if !metaSealed(meta) {
		return false
	}
	depth := metaDepth(meta)
	return h.tryReclaim(r, hash&(uint64(1)<<uint(depth)-1), depth)
}

// ReclaimSealed walks the table and reclaims up to max sealed buckets
// (max <= 0 means no limit). Splits already reclaim opportunistically;
// this sweep catches roots those attempts skipped (claim contention,
// directory too shallow at the time). Candidates are visited parents-
// first, so a single sweep cascades down a tree: freeing a root turns
// its children into the next pass's roots. Returns how many buckets were
// freed. O(table) per call; maintenance, not a hot path.
func (h *Handle) ReclaimSealed(max int) int {
	t := h.t
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()
	gdepth := int(core.PCASRead(t.dev, t.depthWord)) - 1
	if gdepth < 0 {
		return 0
	}
	// Collect candidates first: reclaiming while walking would invalidate
	// the walk's own hint chain. Preorder, so parents precede children.
	type candidate struct {
		b     nvram.Offset
		class uint64
		depth int
	}
	var cands []candidate
	seen := make(map[nvram.Offset]bool)
	type node struct {
		b     nvram.Offset
		class uint64
	}
	var stack []node
	for j := uint64(0); j < uint64(1)<<uint(gdepth); j++ {
		e := h.dirRead(t.dirBase + nvram.Offset(j)*nvram.WordSize)
		if e == 0 || e == reclaimedPtr {
			continue // torn by a concurrent grow; the sweep is best-effort
		}
		em := h.core.Read(nvram.Offset(e) + bucketMetaOff)
		stack = append(stack, node{nvram.Offset(e), j & (uint64(1)<<uint(metaDepth(em)) - 1)})
		// Entries name descendants; candidates can also sit above them.
		// Walk up to the tree root so orphaned interiors are found too.
		b := nvram.Offset(e)
		for {
			p := h.core.Read(b + bucketParentOff)
			if p == 0 || p == reclaimedPtr {
				break
			}
			b = nvram.Offset(p)
			pm := h.core.Read(b + bucketMetaOff)
			pd := metaDepth(pm)
			stack = append(stack, node{b, j & (uint64(1)<<uint(pd) - 1)})
		}
	}
	// The stack holds ancestors last (pushed after their subtrees' seeds);
	// sort the DFS so parents are recorded before their descendants by
	// walking depth order during collection below.
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n.b] {
			continue
		}
		seen[n.b] = true
		meta := h.core.Read(n.b + bucketMetaOff)
		if !metaSealed(meta) {
			continue
		}
		depth := metaDepth(meta)
		if depth < gdepth {
			cands = append(cands, candidate{n.b, n.class, depth})
		}
		for bit, off := range [2]nvram.Offset{bucketChild0Off, bucketChild1Off} {
			c := h.core.Read(n.b + off)
			if c == 0 || c == reclaimedPtr {
				continue
			}
			stack = append(stack, node{nvram.Offset(c), n.class | uint64(bit)<<uint(depth)})
		}
	}
	// Shallower buckets first: a tree's root is its shallowest member, and
	// freeing it turns its children into roots a later candidate attempt
	// in this same sweep can take.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].depth < cands[j-1].depth; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	freed := 0
	for _, c := range cands {
		if max > 0 && freed >= max {
			break
		}
		if h.tryReclaim(c.b, c.class, c.depth) {
			freed++
		}
	}
	return freed
}
