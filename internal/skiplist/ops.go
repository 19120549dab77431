package skiplist

import (
	"errors"

	"pmwcas/internal/core"
	"pmwcas/internal/index"
	"pmwcas/internal/nvram"
)

// writeOp says what a write does with a present and with an absent key.
type writeOp uint8

const (
	opInsert writeOp = iota // absent: link a node; present: ErrKeyExists
	opUpdate                // present: replace the value; absent: ErrNotFound
	opPut                   // either, with an owned value (PutOwned)
)

// Insert adds key with value. It returns ErrKeyExists if the key is
// already present. The insert is visible (and, in persistent mode,
// durable-on-read per the PMwCAS protocol) the moment the base-level
// PMwCAS commits; taller towers are then linked level by level, each with
// its own PMwCAS, exactly as §6.1 describes.
//
//pmwcas:hotpath — PMwCAS-skiplist point insert; allocation-free up to amortized SMO work, pinned by TestPointOpsAllocBudget
func (h *Handle) Insert(key, value uint64) error {
	return h.writeOuter(key, value, opInsert)
}

// Update replaces the value stored under key with a one-word PMwCAS. A
// delete marks the value word as it unlinks the node, so an update can
// never land on a node that a concurrent Delete has already removed.
//
//pmwcas:hotpath — PMwCAS-skiplist point update; allocation-free up to amortized SMO work, pinned by TestPointOpsAllocBudget
func (h *Handle) Update(key, value uint64) error {
	return h.writeOuter(key, value, opUpdate)
}

// PutOwned inserts value under key, or replaces the value key holds. The
// values are allocator block offsets owned by the list entry, and value
// is a reserved, filled block (index.Owner) that rides the publishing
// PMwCAS. A replace makes it the value word's new value under FreeOne,
// which frees the displaced block on success and value on failure; an
// insert adds an old == new FreeNewOnFailure entry on the new node's value
// word, as DeleteOwned pins the value it removes. The frees go through the
// PMwCAS recycling machinery (Table 1) — atomic with the update as far as
// crashes are concerned, and only after the epoch proves no reader still
// holds the block. Each attempt is one find, whose result the insert or
// the update acts on. A lost PMwCAS returns index.ErrRaced; every other
// error returns value to the allocator.
//
//pmwcas:hotpath — blob-layer PUT on the skip list; allocation-free like Insert and Update, which share its body
func (h *Handle) PutOwned(key, value uint64) error {
	return h.writeOuter(key, value, opPut)
}

func (h *Handle) writeOuter(key, value uint64, op writeOp) error {
	err := checkKey(key)
	if err == nil {
		err = checkValue(value)
	}
	if err != nil {
		if op == opPut {
			h.list.alloc.Unreserve(value)
		}
		return err
	}
	for {
		err := h.write(key, value, op)
		if errors.Is(err, core.ErrPoolExhausted) {
			// Unwound with no guard held: reclamation can now make
			// progress. Retry the whole operation.
			h.list.pool.ReclaimPause()
			continue
		}
		return err
	}
}

// write finds key once per attempt and acts on what it found. An absent
// key gets a new node (insert). A found node's value word decides the
// rest: marked by a delete, the node is dead, so an update reports
// ErrNotFound and a put finds again; unmarked, one one-word PMwCAS
// {value: cur→value} replaces it, on a node still live if it commits.
func (h *Handle) write(key, value uint64, op writeOp) error {
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()

	// The tower height is drawn once per op: by an Insert up front, so a
	// refused Insert still advances the height stream as it always has,
	// and by a put only when an attempt inserts.
	height := 0
	if op == opInsert {
		height = h.randomHeight()
	}
	for {
		r := h.find(key)
		if r.found == 0 {
			if op == opUpdate {
				return ErrNotFound
			}
			if height == 0 {
				height = h.randomHeight()
			}
			node, err := h.insert(r.preds[0], r.succs[0], key, value, height, op)
			if err != nil {
				return err
			}
			if node == 0 {
				if op == opPut {
					return index.ErrRaced // the failure policy freed value with the node
				}
				continue // lost the race; the failure policy recycled the node
			}
			// Promotions are best-effort: abandoning them (on deletion
			// races or descriptor pressure) leaves a valid, merely
			// shorter, tower. They start from this find's neighbours.
			for level := 1; level < height; level++ {
				if !h.promote(node, key, level, &r) {
					break
				}
			}
			return nil
		}
		if op == opInsert {
			return ErrKeyExists
		}
		cur := h.read(r.found + nodeValueOff)
		if cur&DeletedMask != 0 {
			if op == opUpdate {
				return ErrNotFound
			}
			continue // deleted after find passed it: find again
		}
		if cur == value {
			return nil // already in place (an owned value never is)
		}
		d, err := h.core.AllocateDescriptor(0)
		if err != nil {
			return err
		}
		var fail error
		if op == opPut {
			fail = d.ReserveEntry(r.found+nodeValueOff, cur, value, core.PolicyFreeOne)
		} else {
			fail = d.AddWord(r.found+nodeValueOff, cur, value)
		}
		if fail != nil {
			d.Discard()
			return fail
		}
		if ok, _ := d.Execute(); ok {
			return nil
		}
		if op == opPut {
			return index.ErrRaced // the failure policy freed value
		}
		// The value moved or the node was deleted: find again.
	}
}

// insert links a new node of the given height between pred and succ at
// the base level with one PMwCAS. It returns the node, or 0 when the
// neighborhood changed (or the key appeared) first. An owned value (opPut)
// joins that PMwCAS, which consumes it on every path from there on.
func (h *Handle) insert(pred, succ nvram.Offset, key, value uint64, height int, op writeOp) (nvram.Offset, error) {
	l := h.list
	d, err := h.core.AllocateDescriptor(0)
	if err != nil {
		return 0, err
	}
	// The new node is filled, then handed to the descriptor, which owns
	// it until the PMwCAS succeeds and frees it automatically if the
	// insert loses its race (§5.2, Figure 3).
	node, err := h.ah.Reserve(nodeSize(height))
	if err == nil {
		l.dev.Store(node+nodeKeyOff, key)
		l.dev.Store(node+nodeValueOff, value)
		l.dev.Store(node+nodeMetaOff, uint64(height))
		l.dev.Store(node+linkOff(0, false), succ)
		l.dev.Store(node+linkOff(0, true), pred)
		// Upper levels start unlinked: promote expects their zero.
		for level := 1; level < height; level++ {
			l.dev.Store(node+linkOff(level, false), 0)
			l.dev.Store(node+linkOff(level, true), 0)
		}
		err = d.ReserveEntry(pred+linkOff(0, false), succ, node, core.PolicyFreeNewOnFailure)
	}
	if err != nil {
		if op == opPut {
			l.alloc.Unreserve(value)
		}
		d.Discard()
		return 0, err
	}
	if op == opPut {
		err = d.ReserveEntry(node+nodeValueOff, value, value, core.PolicyFreeNewOnFailure)
	}
	if err == nil {
		err = d.AddWord(succ+linkOff(0, true), pred, node)
	}
	if err != nil {
		d.Discard()
		return 0, err
	}
	ok, err := d.Execute()
	if err != nil || !ok {
		return 0, err
	}
	return node, nil
}

// promote links node into the level-i list. Returns false if the node was
// deleted (its level word was sealed) before the promotion could land.
// The first attempt links node between r's level-i neighbours: the
// PMwCAS compares pred.next[i], succ.prev[i] and node.next[i], so a stale
// pair or a sealed node only loses it. Only a lost PMwCAS finds again,
// into r, so the promotions above this level start from the fresh find.
//
//pmwcas:requires-guard — reads level words of a node deletion may retire
func (h *Handle) promote(node nvram.Offset, key uint64, level int, r *findResult) bool {
	for {
		// A base delete seals unpromoted levels by marking their zero
		// next word; once sealed, the expected 0 below can never match.
		if h.read(node+linkOff(level, false)) != 0 {
			return false
		}
		d, err := h.core.AllocateDescriptor(0)
		if err != nil {
			return false
		}
		pred, succ := r.preds[level], r.succs[level]
		// Before the link, so no level is ever linked at or above top.
		raiseTop(&h.list.top, level+1)
		// Sequential short-circuit instead of errors.Join: Join allocates
		// its variadic slice on every promote, and a failed AddWord leads
		// to Discard either way — the first error is the only one acted on.
		fail := d.AddWord(pred+linkOff(level, false), succ, node)
		if fail == nil {
			fail = d.AddWord(succ+linkOff(level, true), pred, node)
		}
		if fail == nil {
			fail = d.AddWord(node+linkOff(level, false), 0, succ)
		}
		if fail == nil {
			fail = d.AddWord(node+linkOff(level, true), 0, pred)
		}
		if fail != nil {
			d.Discard()
			return false
		}
		if ok, _ := d.Execute(); ok {
			return true
		}
		if *r = h.find(key); r.found != node {
			return false // deleted (and possibly re-inserted as another node)
		}
	}
}

// Get returns the value stored under key.
//
//pmwcas:hotpath — PMwCAS-skiplist point lookup; allocation-free up to amortized SMO work, pinned by TestPointOpsAllocBudget
func (h *Handle) Get(key uint64) (uint64, error) {
	if err := checkKey(key); err != nil {
		return 0, err
	}
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()
	r := h.seek(key)
	if r.found == 0 {
		return 0, ErrNotFound
	}
	return h.read(r.found+nodeValueOff) &^ DeletedMask, nil
}

// DeleteOwned removes key whose value is an allocator block offset owned
// by the entry: the block is freed through the PMwCAS recycling
// machinery together with the node itself, crash-safely. The base-level
// PMwCAS marks the value word it read, so the returned value is exact —
// no concurrent update can slip between the read and the unlink. The
// caller must NOT free it again.
//
//pmwcas:hotpath — blob-layer delete on the skip list; allocation-free like Delete, which shares its body
func (h *Handle) DeleteOwned(key uint64) (uint64, error) {
	return h.deleteOuter(key, core.PolicyFreeOldOnSuccess)
}

// Delete removes key. It unlinks upper levels top-down — one PMwCAS per
// level — then removes the base level with a PMwCAS that simultaneously
// asserts/seals every upper level dead, so the node's memory (released by
// the base PMwCAS's FreeOldOnSuccess policy) can never be reachable from
// any level.
//
//pmwcas:hotpath — PMwCAS-skiplist point delete; allocation-free up to amortized SMO work, pinned by TestPointOpsAllocBudget
func (h *Handle) Delete(key uint64) error {
	_, err := h.deleteOuter(key, core.PolicyNone)
	return err
}

func (h *Handle) deleteOuter(key uint64, valPolicy core.Policy) (uint64, error) {
	if err := checkKey(key); err != nil {
		return 0, err
	}
	for {
		v, err := h.delete(key, valPolicy)
		if errors.Is(err, core.ErrPoolExhausted) {
			h.list.pool.ReclaimPause()
			continue
		}
		return v, err
	}
}

// delete acts on one find: the unlinks take their neighbours from it, and
// only a base PMwCAS that was lost (or not made: another deleter won, or
// a promotion raced an upper level in) finds again. A node the fresh find
// no longer reaches was deleted by another thread, which is ErrNotFound.
func (h *Handle) delete(key uint64, valPolicy core.Policy) (uint64, error) {
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()

	r := h.find(key)
	node := r.found
	if node == 0 {
		return 0, ErrNotFound
	}
	height := h.list.height(node)
	for {
		// Unlink any live upper level, top-down.
		for level := height - 1; level >= 1; level-- {
			if err := h.unlinkLevel(node, key, level, height, &r); err != nil {
				return 0, err
			}
		}
		done, val, err := h.unlinkBase(node, height, valPolicy, &r)
		if done || err != nil {
			return val, err
		}
		if r = h.find(key); r.found != node {
			return 0, ErrNotFound
		}
	}
}

// unlinkLevel removes node from the level-i list (one PMwCAS: mark +
// unlink both directions) after r's level-i predecessor. Best effort: if
// another thread unlinks it first, that is success too. It finds again,
// into r, only when r does not reach node at this level (the find
// predates the promotion) or after a lost PMwCAS.
//
// The same PMwCAS compares the level above dead and marks it, sealing a
// level never promoted: a promotion that landed above a dead level would
// leave the node reachable there with a marked link below, and every
// find through it would restart for ever. A level above that was
// promoted after the caller passed it is left for the caller's next
// top-down round, and this level with it.
//
//pmwcas:requires-guard — reads links of the node being unlinked
func (h *Handle) unlinkLevel(node nvram.Offset, key uint64, level, height int, r *findResult) error {
	for {
		succ := h.read(node + linkOff(level, false))
		if succ == 0 || succ&DeletedMask != 0 {
			return nil
		}
		if r.succs[level] != node {
			*r = h.find(key) // the find predates the promotion
			continue
		}
		pred := r.preds[level]
		d, err := h.core.AllocateDescriptor(0)
		if err != nil {
			return err
		}
		fail := d.AddWord(node+linkOff(level, false), succ, succ|DeletedMask)
		if fail == nil {
			fail = d.AddWord(pred+linkOff(level, false), node, succ)
		}
		if fail == nil {
			fail = d.AddWord(succ+linkOff(level, true), node, pred)
		}
		if fail == nil && level+1 < height {
			above := h.read(node + linkOff(level+1, false))
			if above != 0 && above&DeletedMask == 0 {
				d.Discard()
				return nil // promoted since the caller passed it
			}
			fail = d.AddWord(node+linkOff(level+1, false), above, above|DeletedMask)
		}
		if fail != nil {
			d.Discard()
			return nil
		}
		if ok, _ := d.Execute(); ok {
			return nil
		}
		*r = h.find(key)
	}
}

// unlinkBase removes the base level and seals all upper levels in one
// PMwCAS, after r's base predecessor, which the pred.next[0]: node→succ
// entry validates. That entry carries FreeOldOnSuccess: its old value
// is the node itself, recycled once the epoch proves no traversal can
// still touch it (§6.1). The value word joins it as val→val|DeletedMask
// under valPolicy: the mark fails any replace that read the value before
// the delete, and the compare certifies exactly which value it removed
// (FreeOldOnSuccess, for DeleteOwned, frees that value's block).
// It reports false when it did not unlink the node: another deleter
// won, an upper level is live, or r is stale. The caller finds again.
//
//pmwcas:requires-guard — reads the doomed node's links and value word
func (h *Handle) unlinkBase(node nvram.Offset, height int, valPolicy core.Policy, r *findResult) (bool, uint64, error) {
	succ := h.read(node + linkOff(0, false))
	if succ&DeletedMask != 0 {
		return false, 0, nil // another deleter won
	}
	pred := r.preds[0]
	d, err := h.core.AllocateDescriptor(0)
	if err != nil {
		return false, 0, err
	}
	fail := d.AddWordWithPolicy(pred+linkOff(0, false), node, succ, core.PolicyFreeOldOnSuccess)
	if fail == nil {
		fail = d.AddWord(succ+linkOff(0, true), node, pred)
	}
	if fail == nil {
		fail = d.AddWord(node+linkOff(0, false), succ, succ|DeletedMask)
	}
	var val uint64
	if fail == nil {
		val = h.read(node + nodeValueOff)
		fail = d.AddWordWithPolicy(node+nodeValueOff, val, val|DeletedMask, valPolicy)
	}
	for level := 1; fail == nil && level < height; level++ {
		v := h.read(node + linkOff(level, false))
		if v != 0 && v&DeletedMask == 0 {
			d.Discard()
			return false, 0, nil // live upper level: must unlink it first
		}
		// Dead (marked) levels are compared; unpromoted (0) levels are
		// sealed so no promotion can ever land after the node dies.
		fail = d.AddWord(node+linkOff(level, false), v, v|DeletedMask)
	}
	if fail != nil {
		d.Discard()
		return false, 0, nil
	}
	ok, err := d.Execute()
	return ok && err == nil, val, nil
}

// Len counts the keys by walking the base level. O(n); intended for
// tests and tools, not hot paths.
func (l *List) Len(h *Handle) int {
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()
	n := 0
	for cur := h.read(l.head + linkOff(0, false)); cur != l.tail; {
		n++
		next := h.read(cur+linkOff(0, false)) &^ DeletedMask
		cur = next
	}
	return n
}
