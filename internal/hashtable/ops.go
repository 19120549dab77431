package hashtable

import (
	"errors"
	"time"

	"pmwcas/internal/core"
	"pmwcas/internal/index"
	"pmwcas/internal/metrics"
	"pmwcas/internal/nvram"
)

// errDepthExhausted is a sentinel (split sits on the //pmwcas:hotpath
// proof, where constructing an error would allocate).
var errDepthExhausted = errors.New("hashtable: bucket depth exhausted (pathological hash collisions)")

// dirRead and dirReadHint read a directory entry, sanitizing the one
// kind of value the single-word read family cannot: a descriptor
// pointer. Directory words are multi-word targets — the sealed-bucket
// reclaim PMwCAS (reclaim.go phase 3) installs its descriptor in the
// planted entry, and a straggler helper of an already-decided reclaim
// can transiently re-install one in any formerly-planted entry, even
// while the caller holds growClaim. The PCAS family understands only
// the dirty bit and would hand such a pointer back verbatim, to be
// dereferenced as a bucket offset. Any flagged value is therefore
// re-read through the full protocol read, which helps the operation to
// completion and returns the plain entry.
//
// dirRead is the exact variant (core.PCASRead underneath: the current
// value, flush-before-read) for protocol decisions — the doubling copy,
// the reclaim scrub/plant, sweeps and iteration. dirReadHint is the hint
// variant (wordReadHint underneath) for locate's navigation, where the
// psan build deliberately reads an unflushed hint copy.
//
//pmwcas:requires-guard — the fallback read may help a reclaim descriptor the epoch protects
func (h *Handle) dirRead(off nvram.Offset) uint64 {
	v := core.PCASRead(h.t.dev, off)
	if v&(core.MwCASFlag|core.RDCSSFlag) != 0 {
		return h.core.Read(off)
	}
	return v
}

//pmwcas:requires-guard — the fallback read may help a reclaim descriptor the epoch protects
func (h *Handle) dirReadHint(off nvram.Offset) uint64 {
	v := h.t.wordReadHint(off)
	if v&(core.MwCASFlag|core.RDCSSFlag) != 0 {
		return h.core.Read(off)
	}
	return v
}

// Traversal-shape and SMO instruments (DRAM-only). Locate depth counts
// sealed-bucket hops under a directory hint — the chain length path
// compression exists to shorten.
var (
	mLocateDepth = metrics.NewHistogram("hashtable_locate_depth")
	mSplitNs     = metrics.NewHistogram("hashtable_split_ns")
	mReclaimNs   = metrics.NewHistogram("hashtable_reclaim_ns")
)

//pmwcas:requires-guard — walks directory hints and bucket chain words the epoch may hand to late readers
func (h *Handle) locate(hash uint64) (nvram.Offset, uint64) {
	t := h.t
	g := int(t.wordReadHint(t.depthWord)) - 1
	dirOff := t.dirBase + (hash&((1<<uint(g))-1))*nvram.WordSize
	first := h.dirReadHint(dirOff)
	if first == 0 {
		panic("hashtable: zero directory entry — image corrupt")
	}
	b := first
	meta := h.core.Read(b + bucketMetaOff)
	target := first
	hops := int64(0)
	for metaSealed(meta) {
		hops++
		// An observed seal implies both children were installed by the
		// same PMwCAS; the depth in the sealed meta selects the hash bit.
		// Child words are never tombstoned — only forest roots are
		// reclaimed, and b stands under our guard, so b is not a root's
		// already-freed ancestor — which is why this walk needs no retry.
		bit := (hash >> uint(metaDepth(meta))) & 1
		if bit == 0 {
			b = nvram.Offset(h.core.Read(b + bucketChild0Off))
		} else {
			b = nvram.Offset(h.core.Read(b + bucketChild1Off))
		}
		meta = h.core.Read(b + bucketMetaOff)
		if metaDepth(meta) <= g {
			// Still covers the entry's whole suffix class — a valid hint
			// for every key routed through dirOff, not just this one.
			target = b
		}
	}
	if target != first {
		// Path-compress the directory hint. Compression stops at depth g:
		// a deeper bucket covers only a subset of the entry's class and
		// would misroute its other keys. Losing the race just leaves a
		// longer hint chain for the next walker.
		core.PCAS(t.dev, dirOff, uint64(first), uint64(target))
	}
	if metaDepth(meta) > g && g < t.maxDepth {
		h.tryDouble(g)
	}
	mLocateDepth.Observe(h.lane, hops)
	return b, meta
}

// tryDouble grows the live directory from depth g to g+1 so walks that
// outgrew the directory shorten back toward one hop. Purely an
// accelerator: correctness never depends on it happening.
//
//pmwcas:requires-guard — re-reads directory hints that concurrent repairs retarget
func (h *Handle) tryDouble(g int) {
	t := h.t
	if !t.growClaim.CompareAndSwap(false, true) {
		// A doubling or a sealed-bucket reclaim holds the claim. Doubling
		// is purely an accelerator, so skipping is always safe; the
		// exclusion matters because a doubler's plain-store copy of the
		// live half could republish an entry a concurrent reclaim just
		// durably scrubbed, resurrecting a pointer to a freed bucket.
		return
	}
	defer t.growClaim.Store(false)
	dw := core.PCASRead(t.dev, t.depthWord)
	if int(dw)-1 != g {
		return // raced: someone else already doubled
	}
	half := nvram.Offset(1) << uint(g)
	for i := nvram.Offset(0); i < half; i++ {
		v := h.dirRead(t.dirBase + i*nvram.WordSize)
		// Plain store, not PCAS: the upper half is dead until the depth
		// flip below publishes it, and any historical value of dir[i] is a
		// valid hint for index i+half (it reaches the live bucket through
		// the sealed-bucket tree; the pointed-to bucket itself is durable
		// because v was read clean). A racing doubler writes the same
		// class of value, so lost stores only regress a hint.
		t.dev.Store(t.dirBase+(i+half)*nvram.WordSize, v)
	}
	// Persist the mirrored half before the flip: once the new depth is
	// durable, recovery may route through the upper entries.
	t.flushRange(t.dirBase+half*nvram.WordSize, uint64(half)*nvram.WordSize)
	if core.PCASFlush(t.dev, t.depthWord, dw, dw+1) {
		t.doublings.Add(1)
	}
}

// Get returns the value stored under key. The slot scan is seqlock-
// style: every mutation bumps the bucket version, so an unchanged meta
// word brackets an atomic snapshot of the bucket.
//
//pmwcas:hotpath — extendible-hash point lookup; allocation-free up to amortized split/double work, pinned by TestPointOpsAllocBudget
func (h *Handle) Get(key uint64) (uint64, error) {
	if err := checkKey(key); err != nil {
		return 0, err
	}
	hash := mix64(key)
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()
	for {
		b, meta := h.locate(hash)
		val, found := uint64(0), false
		for i := 0; i < h.t.slots; i++ {
			if h.core.Read(slotKeyOff(b, i)) == key {
				val = h.core.Read(slotValOff(b, i))
				found = true
				break
			}
		}
		if h.core.Read(b+bucketMetaOff) != meta {
			continue // bucket changed mid-scan; retry
		}
		if !found {
			return 0, ErrNotFound
		}
		return val, nil
	}
}

// writeOp says what a write does with a present and with an absent key.
type writeOp uint8

const (
	opInsert writeOp = iota // absent: fill a free slot; present: ErrKeyExists
	opUpdate                // present: replace the value; absent: ErrNotFound
	opPut                   // either, with an owned value (PutOwned)
)

// Insert stores value under a key not yet present. One three-word
// PMwCAS installs the slot pair and bumps the bucket version; the
// version compare validates the duplicate/free-slot scan atomically
// (including against a concurrent split sealing the bucket).
//
//pmwcas:hotpath — extendible-hash point insert; allocation-free up to amortized split/double work, pinned by TestPointOpsAllocBudget
func (h *Handle) Insert(key, value uint64) error {
	return h.write(key, value, opInsert)
}

// Update replaces the value under an existing key: a two-word PMwCAS
// (version bump + value swap). The unchanged version proves the key
// still occupies the slot the scan found it in.
//
//pmwcas:hotpath — extendible-hash point update; allocation-free up to amortized split/double work, pinned by TestPointOpsAllocBudget
func (h *Handle) Update(key, value uint64) error {
	return h.write(key, value, opUpdate)
}

// PutOwned inserts value under key, or replaces the value the slot owns.
// value is a reserved, filled block (index.Owner) that rides the
// publishing PMwCAS as the slot value word's new value: an insert's entry
// (0 → value) carries FreeNewOnFailure, and an update's (old → value)
// FreeOne, which also frees the displaced block once the epoch allows. A
// lost PMwCAS returns index.ErrRaced; every other error returns value to
// the allocator.
//
//pmwcas:hotpath — blob-layer PUT on the hash table; allocation-free like Insert and Update, which share its body
func (h *Handle) PutOwned(key, value uint64) error {
	return h.write(key, value, opPut)
}

// write makes one locate and one slot scan per attempt and acts on what
// the scan found: the two-word update of the key's slot, or the
// three-word insert into a free slot, splitting a full bucket first.
// Every answer given without a PMwCAS waits for the unchanged version to
// prove the scan.
func (h *Handle) write(key, value uint64, op writeOp) error {
	err := checkKey(key)
	if err == nil {
		err = checkValue(value)
	}
	if err != nil {
		return h.refuse(op, value, err)
	}
	hash := mix64(key)
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()
	for {
		b, meta := h.locate(hash)
		slot, free := -1, -1
		for i := 0; i < h.t.slots; i++ {
			k := h.core.Read(slotKeyOff(b, i))
			if k == key {
				slot = i
				break
			}
			if k == 0 && free < 0 {
				free = i
			}
		}
		var old uint64
		if slot >= 0 && op != opInsert {
			old = h.core.Read(slotValOff(b, slot))
		}
		// Absent for an update or present for an insert.
		if slot < 0 && op == opUpdate || slot >= 0 && op == opInsert {
			if h.core.Read(b+bucketMetaOff) != meta {
				continue // stale scan; the key may be mid-insert or mid-delete
			}
			if slot < 0 {
				return ErrNotFound
			}
			return ErrKeyExists
		}
		if slot < 0 && free < 0 {
			if err := h.split(b, meta, hash); err != nil {
				if errors.Is(err, core.ErrPoolExhausted) {
					g.Exit()
					h.t.pool.ReclaimPause()
					g.Enter()
					continue
				}
				return h.refuse(op, value, err)
			}
			continue
		}
		d, err := h.core.AllocateDescriptor(0)
		if err != nil {
			g.Exit()
			h.t.pool.ReclaimPause()
			g.Enter()
			continue
		}
		// The value entry goes first, so an owned value is the
		// descriptor's on every path past this point.
		at, policy := slot, core.PolicyFreeOne
		if slot < 0 {
			at, policy = free, core.PolicyFreeNewOnFailure
		}
		if op == opPut {
			err = d.ReserveEntry(slotValOff(b, at), old, value, policy)
		} else {
			err = d.AddWord(slotValOff(b, at), old, value)
		}
		if err == nil {
			err = d.AddWord(b+bucketMetaOff, meta, bumpVersion(meta))
		}
		if err == nil && slot < 0 {
			err = d.AddWord(slotKeyOff(b, free), 0, key)
		}
		if err != nil {
			d.Discard()
			return err
		}
		ok, err := d.Execute()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if op == opPut {
			return index.ErrRaced // the failure policy freed value
		}
		// Lost to a concurrent mutation or split; retry from the directory.
	}
}

// refuse returns err for a write that never reached a descriptor, first
// handing an owned value back to the allocator.
func (h *Handle) refuse(op writeOp, value uint64, err error) error {
	if op == opPut {
		h.t.alloc.Unreserve(value)
	}
	return err
}

// Delete removes key: a three-word PMwCAS clears the slot pair and bumps
// the version, so the slot is immediately reusable (no tombstones — a
// bucket never probes beyond itself).
//
//pmwcas:hotpath — extendible-hash point delete; allocation-free up to amortized split/double work, pinned by TestPointOpsAllocBudget
func (h *Handle) Delete(key uint64) error {
	_, err := h.delete(key, core.PolicyNone)
	return err
}

// DeleteOwned is Delete of a value the slot owns: the value entry carries
// FreeOldOnSuccess, so the PMwCAS that clears the slot frees the block.
// It returns the value it removed.
//
//pmwcas:hotpath — blob-layer delete on the hash table; allocation-free like Delete, which shares its body
func (h *Handle) DeleteOwned(key uint64) (uint64, error) {
	return h.delete(key, core.PolicyFreeOldOnSuccess)
}

func (h *Handle) delete(key uint64, policy core.Policy) (uint64, error) {
	if err := checkKey(key); err != nil {
		return 0, err
	}
	hash := mix64(key)
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()
	for {
		b, meta := h.locate(hash)
		slot := -1
		var old uint64
		for i := 0; i < h.t.slots; i++ {
			if h.core.Read(slotKeyOff(b, i)) == key {
				slot = i
				old = h.core.Read(slotValOff(b, i))
				break
			}
		}
		if slot < 0 {
			if h.core.Read(b+bucketMetaOff) != meta {
				continue
			}
			return 0, ErrNotFound
		}
		d, err := h.core.AllocateDescriptor(0)
		if err != nil {
			g.Exit()
			h.t.pool.ReclaimPause()
			g.Enter()
			continue
		}
		if err := d.AddWord(b+bucketMetaOff, meta, bumpVersion(meta)); err != nil {
			d.Discard()
			return 0, err
		}
		if err := d.AddWord(slotKeyOff(b, slot), key, 0); err != nil {
			d.Discard()
			return 0, err
		}
		if err := d.AddWordWithPolicy(slotValOff(b, slot), old, 0, policy); err != nil {
			d.Discard()
			return 0, err
		}
		ok, err := d.Execute()
		if err != nil {
			return 0, err
		}
		if ok {
			return old, nil
		}
	}
}

// split replaces full bucket b (observed at version meta) with two
// depth+1 children in a single PMwCAS:
//
//	{ child0: 0 → b0, child1: 0 → b1, meta: v → v | sealed }
//
// The children carry b's slots redistributed by the next hash bit,
// filled before they are handed to the descriptor; the meta compare
// validates that snapshot. A lost race or a crash reclaims both children
// through the FreeNewOnFailure policy (§5.2). The sealed bucket stays
// allocated forever as an interior node of the radix tree — that
// immutability is what lets directory repair run lazily, unordered, and
// crash-ignored.
//
//pmwcas:requires-guard — re-reads the slots of a bucket a racing split may seal
func (h *Handle) split(b nvram.Offset, meta, hash uint64) error {
	t := h.t
	depth := metaDepth(meta)
	if depth >= maxBucketDepth {
		return errDepthExhausted
	}
	if metrics.On() {
		t0 := time.Now()
		defer mSplitNs.ObserveSince(h.lane, t0)
	}
	// Snapshot the slots. Consistency is validated by the meta compare in
	// the PMwCAS below: any concurrent mutation bumps the version and
	// fails the install, reclaiming the children.
	if cap(h.splitKeys) < t.slots {
		h.splitKeys = make([]uint64, t.slots)
		h.splitVals = make([]uint64, t.slots)
	}
	keys := h.splitKeys[:t.slots]
	vals := h.splitVals[:t.slots]
	for i := 0; i < t.slots; i++ {
		keys[i] = h.core.Read(slotKeyOff(b, i))
		vals[i] = h.core.Read(slotValOff(b, i))
	}
	d, err := h.core.AllocateDescriptor(0)
	if err != nil {
		return err
	}
	b0, err := h.ah.Reserve(bucketBytes(t.slots))
	if err != nil {
		d.Discard()
		return err
	}
	b1, err := h.ah.Reserve(bucketBytes(t.slots))
	if err != nil {
		t.alloc.Unreserve(b0)
		d.Discard()
		return err
	}
	// Fill the zeroed children: depth+1, version 0, parent back-pointer,
	// slots split on hash bit `depth`. Reserved and unpublished, so plain
	// stores are private here.
	childMeta := uint64(depth+1) << depthShift
	for _, c := range [2]nvram.Offset{b0, b1} {
		t.dev.Store(c+bucketMetaOff, childMeta)
		t.dev.Store(c+bucketParentOff, b)
	}
	n0, n1 := 0, 0
	for i := 0; i < t.slots; i++ {
		if keys[i] == 0 {
			continue
		}
		if (mix64(keys[i])>>uint(depth))&1 == 0 {
			t.dev.Store(slotKeyOff(b0, n0), keys[i])
			t.dev.Store(slotValOff(b0, n0), vals[i])
			n0++
		} else {
			t.dev.Store(slotKeyOff(b1, n1), keys[i])
			t.dev.Store(slotValOff(b1, n1), vals[i])
			n1++
		}
	}
	// From each handoff on, the descriptor owns that child.
	if err = d.ReserveEntry(b+bucketChild0Off, 0, b0, core.PolicyFreeNewOnFailure); err != nil {
		t.alloc.Unreserve(b1)
	} else if err = d.ReserveEntry(b+bucketChild1Off, 0, b1, core.PolicyFreeNewOnFailure); err == nil {
		err = d.AddWord(b+bucketMetaOff, meta, meta|sealedMask)
	}
	if err != nil {
		d.Discard()
		return err
	}
	ok, err := d.Execute()
	if err != nil {
		return err
	}
	if !ok {
		return nil // lost the race; children reclaimed by policy
	}
	t.splits.Add(1)
	// Eager directory repair: swing every live entry in b's suffix class
	// to the matching child. Best-effort — entries this loop misses (or
	// that a concurrent doubling re-copies stale) are repaired by walkers.
	g := int(core.PCASRead(t.dev, t.depthWord)) - 1
	if depth < g {
		class := hash & ((1 << uint(depth)) - 1)
		for j := class; j < (1 << uint(g)); j += 1 << uint(depth) {
			off := t.dirBase + j*nvram.WordSize
			if h.dirRead(off) == uint64(b) {
				child := b0
				if (j>>uint(depth))&1 == 1 {
					child = b1
				}
				core.PCAS(t.dev, off, b, child)
			}
		}
	}
	// Amortized reclamation: each split creates one interior bucket, so
	// each split tries to free one — the root of b's tree, the only
	// sealed bucket currently eligible (roots-only discipline). Best-
	// effort: a lost claim or a too-shallow directory leaves it for a
	// later split or an explicit ReclaimSealed sweep.
	h.reclaimRootOf(b, hash)
	return nil
}

// Scan reports ErrUnordered: a hash table has no key order to scan in.
// It exists so the handle satisfies index.Handle; Range iterates.
func (h *Handle) Scan(from, to uint64, fn func(Entry) bool) error { return ErrUnordered }

// Range visits every entry in unspecified order. Each bucket is read as
// a seqlock snapshot, but the iteration as a whole is not atomic:
// entries moved by a concurrent split can be seen twice or not at all,
// like any weakly-consistent hash iterator. fn returning false stops the
// walk. fn runs under the walk's epoch guard and must not block.
func (h *Handle) Range(fn func(key, value uint64) bool) error {
	t := h.t
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()
	gdepth := int(core.PCASRead(t.dev, t.depthWord)) - 1
	if gdepth < 0 {
		return nil
	}
	seen := make(map[nvram.Offset]bool)
	var stack []nvram.Offset
	for j := nvram.Offset(0); j < 1<<uint(gdepth); j++ {
		b := h.dirRead(t.dirBase + j*nvram.WordSize)
		if b == 0 {
			panic("hashtable: zero directory entry — image corrupt")
		}
		stack = append(stack, b)
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		for {
			meta := h.core.Read(b + bucketMetaOff)
			if metaSealed(meta) {
				stack = append(stack, h.core.Read(b+bucketChild0Off))
				stack = append(stack, h.core.Read(b+bucketChild1Off))
				break
			}
			var entries []Entry
			for i := 0; i < t.slots; i++ {
				if k := h.core.Read(slotKeyOff(b, i)); k != 0 {
					entries = append(entries, Entry{Key: k, Value: h.core.Read(slotValOff(b, i))})
				}
			}
			if h.core.Read(b+bucketMetaOff) != meta {
				continue // torn bucket snapshot; re-read this bucket
			}
			for _, e := range entries {
				//lint:allow nonblock — user visitor runs under the scan guard by documented contract; it must not block (§6.3)
				if !fn(e.Key, e.Value) {
					return nil
				}
			}
			break
		}
	}
	return nil
}

// Len counts live entries. O(table); tests and tools.
func (h *Handle) Len() int {
	n := 0
	h.Range(func(uint64, uint64) bool { n++; return true })
	return n
}
