package hashtable

import (
	"errors"
	"math/bits"
	"sync/atomic"
	"time"

	"pmwcas/internal/core"
	"pmwcas/internal/index"
	"pmwcas/internal/metrics"
	"pmwcas/internal/nvram"
)

// errDepthExhausted is a sentinel (split sits on the //pmwcas:hotpath
// proof, where constructing an error would allocate).
var errDepthExhausted = errors.New("hashtable: bucket depth exhausted (pathological hash collisions)")

// errChainShort is locate's sentinel for a sibling chain that ends before
// the bucket a hash's meta word names: the image is corrupt.
var errChainShort = errors.New("hashtable: sibling chain ends short (image corrupt)")

// Traversal-shape and SMO instruments (DRAM-only). Locate depth counts
// the sibling buckets a walk loads past its directory hint — the chain
// length path compression exists to shorten.
var (
	mLocateDepth = metrics.NewHistogram("hashtable_locate_depth")
	mSplitNs     = metrics.NewHistogram("hashtable_split_ns")
)

// locate routes hash from its directory hint to the bucket holding its
// class, returning the bucket and the meta word it was routed by, or
// errChainShort.
//
//pmwcas:requires-guard — reads bucket words a concurrent PMwCAS may hold, helping it under the epoch
func (h *Handle) locate(hash uint64) (nvram.Offset, uint64, error) {
	dir := *h.t.dir.Load()
	g := bits.TrailingZeros64(uint64(len(dir)))
	hint := &dir[hash&uint64(len(dir)-1)]
	first := nvram.Offset(hint.Load())
	b := first
	meta := h.core.Read(b + bucketMetaOff)
	target := first
	hops := int64(0)
	for {
		stray := strayBits(hash, meta)
		if stray == 0 {
			break
		}
		// The lowest stray bit l names the split that moved the hash's
		// keys: b's sibling created at depth l+1. b's chain lists its
		// siblings newest first, one creation depth apart, and a sib word
		// read after meta is at least as new as meta, so the walk reaches
		// it.
		want := metaCreated(meta) + bits.TrailingZeros64(stray) + 1
		b = nvram.Offset(h.core.Read(b + bucketSibOff))
		for {
			if b == 0 {
				return 0, 0, errChainShort
			}
			meta = h.core.Read(b + bucketMetaOff)
			hops++
			if metaCreated(meta) == want {
				break
			}
			b = nvram.Offset(h.core.Read(b + bucketPrevOff))
		}
		if want <= g {
			// Created at depth <= g: its creation class covers the
			// entry's whole suffix class — a valid hint for every key
			// routed through this entry, not just this one.
			target = b
		}
	}
	if target != first {
		// Path-compress the directory hint. Compression stops at
		// creation depth g: a bucket created deeper covers only a subset
		// of the entry's class and would misroute its other keys. Losing
		// the race just leaves a longer hint chain for the next walker.
		hint.CompareAndSwap(uint64(first), uint64(target))
	}
	if metaDepth(meta) > g {
		h.t.tryDouble(dir)
	}
	mLocateDepth.Observe(h.lane, hops)
	return b, meta, nil
}

// tryDouble grows the directory dir, the live one at depth g, to g+1 so
// walks that outgrew it shorten back toward one hop. Purely an
// accelerator: correctness never depends on it happening. The grown
// directory takes the spare capacity of dir's array when it has room,
// so only every other doubling allocates.
func (t *Table) tryDouble(dir []atomic.Uint64) {
	half := len(dir)
	g := bits.TrailingZeros64(uint64(half))
	if g >= t.maxDir || !t.growClaim.CompareAndSwap(false, true) {
		return // at the cap, or another doubling is in flight
	}
	defer t.growClaim.Store(false)
	if len(*t.dir.Load()) != half {
		return // raced: someone else already doubled
	}
	if cap(dir) < 2*half {
		grown := make([]atomic.Uint64, half, min(4*half, 1<<t.maxDir))
		for i := range dir {
			grown[i].Store(dir[i].Load())
		}
		dir = grown
	}
	// Entries past len(dir) are unread until the publish below, and any
	// value entry i ever held is a valid hint for i+half: its creation
	// depth is at most g, so its creation class covers both entries.
	// Path compressions and repairs that race the copy only leave a hint
	// one hop longer.
	dir = dir[:2*half]
	for i := 0; i < half; i++ {
		dir[half+i].Store(dir[i].Load())
	}
	t.dirs[g+1] = dir
	t.dir.Store(&t.dirs[g+1])
	t.doublings.Add(1)
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
		b, meta, err := h.locate(hash)
		if err != nil {
			return 0, err
		}
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
// (including against a concurrent split deepening the bucket).
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
// (0 or a ghost's value → value) carries FreeNewOnFailure, and an
// update's (old → value) FreeOne, which also frees the displaced block
// once the epoch allows. A
// lost PMwCAS returns index.ErrRaced; every other error returns value to
// the allocator.
//
//pmwcas:hotpath — blob-layer PUT on the hash table; allocation-free like Insert and Update, which share its body
func (h *Handle) PutOwned(key, value uint64) error {
	return h.write(key, value, opPut)
}

// write makes one locate and one slot scan per attempt and acts on what
// the scan found: the two-word update of the key's slot, or the
// three-word insert into an empty or ghost slot, splitting a full bucket
// first. Every answer given without a PMwCAS waits for the unchanged
// version to prove the scan.
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
		b, meta, err := h.locate(hash)
		if err != nil {
			return h.refuse(op, value, err)
		}
		slot, free := -1, -1
		var freeKey uint64
		for i := 0; i < h.t.slots; i++ {
			k := h.core.Read(slotKeyOff(b, i))
			if k == key {
				slot = i
				break
			}
			// An empty slot or a ghost — a key a split moved to a sibling
			// — is free to take.
			if free < 0 && op != opUpdate && (k == 0 || strayBits(mix64(k), meta) != 0) {
				free, freeKey = i, k
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
		// descriptor's on every path past this point. A ghost's value
		// belongs to the sibling that holds its key, so taking its slot
		// frees nothing on success.
		at, policy := slot, core.PolicyFreeOne
		if slot < 0 {
			at, policy = free, core.PolicyFreeNewOnFailure
			if freeKey != 0 {
				old = h.core.Read(slotValOff(b, free))
			}
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
			err = d.AddWord(slotKeyOff(b, free), freeKey, key)
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
		b, meta, err := h.locate(hash)
		if err != nil {
			return 0, err
		}
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

// split deepens full bucket b (observed at version meta, depth L) in
// place with a single PMwCAS:
//
//	{ b.sib: old → s, b.meta: v → depth L+1, version v+1 }
//
// s is a new bucket created at depth L+1, filled before it is handed to
// the descriptor with b's keys whose hash bit L is 1; the meta
// compare validates that snapshot. A lost race or a crash frees s
// through the FreeNewOnFailure policy (§5.2). The moved keys stay in b
// as ghosts, and no bucket is ever freed — which is what lets directory
// repair run lazily, unordered, and crash-ignored.
//
//pmwcas:requires-guard — re-reads the slots of a bucket a racing PMwCAS may hold
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
	// Snapshot the slots and the chain head. Consistency is validated by
	// the meta compare in the PMwCAS below: any concurrent mutation bumps
	// the version and fails the install, freeing s.
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
	sib := h.core.Read(b + bucketSibOff)
	d, err := h.core.AllocateDescriptor(0)
	if err != nil {
		return err
	}
	s, err := h.ah.Reserve(bucketBytes(t.slots))
	if err != nil {
		d.Discard()
		return err
	}
	// Fill every word of the sibling: created at depth+1, version 0, no
	// sibling of its own, chained to b's previous sibling, holding the
	// keys with hash bit `depth` set and empty slots after them. Every
	// slot of b is live: the write that called split found no empty or
	// ghost slot at the version the PMwCAS below compares. Reserved and
	// unpublished, so plain stores are private here.
	t.dev.Store(s+bucketMetaOff, uint64(depth+1)<<depthShift|uint64(depth+1)<<createdShift)
	t.dev.Store(s+bucketSibOff, 0)
	t.dev.Store(s+bucketPrevOff, sib)
	t.dev.Store(s+bucketSpareOff, 0)
	n := 0
	for i := 0; i < t.slots; i++ {
		if (mix64(keys[i])>>uint(depth))&1 == 1 {
			t.dev.Store(slotKeyOff(s, n), keys[i])
			t.dev.Store(slotValOff(s, n), vals[i])
			n++
		}
	}
	for ; n < t.slots; n++ {
		t.dev.Store(slotKeyOff(s, n), 0)
		t.dev.Store(slotValOff(s, n), 0)
	}
	// From the handoff on, the descriptor owns s.
	err = d.ReserveEntry(b+bucketSibOff, sib, s, core.PolicyFreeNewOnFailure)
	if err == nil {
		err = d.AddWord(b+bucketMetaOff, meta, bumpVersion(meta)+1<<depthShift)
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
		return nil // lost the race; s freed by policy
	}
	t.splits.Add(1)
	// Eager directory repair: swing the entries of s's class that still
	// name b to s. Best-effort — an entry this loop misses (or that a
	// concurrent doubling copies stale) still routes through b.
	dir := *t.dir.Load()
	for j := hash&(1<<uint(depth)-1) | 1<<uint(depth); j < uint64(len(dir)); j += 2 << uint(depth) {
		dir[j].CompareAndSwap(uint64(b), uint64(s))
	}
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
	// Every bucket hangs off the first through sib (a bucket's newest
	// sibling) and prev (the next-older one) words, which form a tree.
	stack := []nvram.Offset{t.root}
	var entries []Entry
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var sib, prev uint64
		for {
			meta := h.core.Read(b + bucketMetaOff)
			sib = h.core.Read(b + bucketSibOff)
			prev = h.core.Read(b + bucketPrevOff)
			entries = entries[:0]
			for i := 0; i < t.slots; i++ {
				if k := h.core.Read(slotKeyOff(b, i)); k != 0 && strayBits(mix64(k), meta) == 0 {
					entries = append(entries, Entry{Key: k, Value: h.core.Read(slotValOff(b, i))})
				}
			}
			if h.core.Read(b+bucketMetaOff) == meta {
				break
			}
			// torn bucket snapshot; re-read this bucket
		}
		for _, w := range [2]uint64{sib, prev} {
			if w != 0 {
				stack = append(stack, nvram.Offset(w))
			}
		}
		for _, e := range entries {
			//lint:allow nonblock — user visitor runs under the scan guard by documented contract; it must not block (§6.3)
			if !fn(e.Key, e.Value) {
				return nil
			}
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
