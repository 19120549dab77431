package skiplist

import (
	"pmwcas/internal/index"
	"pmwcas/internal/nvram"
)

// This file implements forward and reverse range scans. The doubly-linked
// design makes reverse scans first-class: prev pointers are maintained
// atomically with next pointers by every PMwCAS, so a reverse traversal
// needs no auxiliary stack of predecessors and no fix-up machinery — the
// paper's motivation for building the list doubly-linked in the first
// place (§6.1).

// Entry is one key/value pair yielded by a scan.
type Entry = index.Entry

// Scan visits keys in [from, to] in ascending order, calling fn for each;
// fn returning false stops the scan. Concurrent mutations may or may not
// be observed, but every visited entry was present at the moment it was
// read (the list is consistent at every instant). fn runs under the
// scan's epoch guard and must not block or retain the Entry.
func (h *Handle) Scan(from, to uint64, fn func(Entry) bool) error {
	if err := checkKey(from); err != nil {
		return err
	}
	if to > MaxKey {
		to = MaxKey
	}
	l := h.list
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()

	r := h.seek(from)
	cur := r.succs[0]
	for cur != l.tail {
		k := l.key(cur)
		if k > to {
			break
		}
		v := h.read(cur+nodeValueOff) &^ DeletedMask
		next := h.read(cur+linkOff(0, false)) &^ DeletedMask
		// A node deleted mid-visit still carries a valid snapshot; yield
		// it unmarked (it was present when we reached it) and continue
		// through its stable next pointer.
		//lint:allow nonblock — user visitor runs under the scan guard by documented contract; it must not block (§6.3)
		if !fn(Entry{Key: k, Value: v}) {
			return nil
		}
		cur = next
	}
	return nil
}

// ScanReverse visits keys in [from, to] in descending order starting at
// to, calling fn for each; fn returning false stops the scan. fn runs
// under the scan's epoch guard and must not block.
func (h *Handle) ScanReverse(from, to uint64, fn func(Entry) bool) error {
	if err := checkKey(from); err != nil {
		return err
	}
	if to > MaxKey {
		to = MaxKey
	}
	l := h.list
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()

	// Position after the range end, then walk prev pointers.
	var start nvram.Offset
	if to == MaxKey {
		start = l.tail
	} else {
		r := h.seek(to + 1)
		start = r.succs[0]
	}
	cur := h.read(start + linkOff(0, true))
	for cur != l.head {
		k := l.key(cur)
		if k < from {
			break
		}
		if k <= to { // a racing insert may have slid a larger key in
			v := h.read(cur+nodeValueOff) &^ DeletedMask
			//lint:allow nonblock — user visitor runs under the scan guard by documented contract; it must not block (§6.3)
			if !fn(Entry{Key: k, Value: v}) {
				return nil
			}
		}
		cur = h.read(cur+linkOff(0, true)) &^ DeletedMask
	}
	return nil
}

// Range returns the entries in [from, to] ascending. Convenience for
// tests and tools; prefer Scan for large ranges.
func (h *Handle) Range(from, to uint64) ([]Entry, error) {
	var out []Entry
	err := h.Scan(from, to, func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out, err
}

// RangeReverse returns the entries in [from, to] descending.
func (h *Handle) RangeReverse(from, to uint64) ([]Entry, error) {
	var out []Entry
	err := h.ScanReverse(from, to, func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out, err
}

// Min returns the smallest key and its value.
func (h *Handle) Min() (Entry, error) {
	var e Entry
	found := false
	err := h.Scan(1, MaxKey, func(x Entry) bool { e, found = x, true; return false })
	if err != nil {
		return e, err
	}
	if !found {
		return e, ErrNotFound
	}
	return e, nil
}

// Max returns the largest key and its value.
func (h *Handle) Max() (Entry, error) {
	var e Entry
	found := false
	err := h.ScanReverse(1, MaxKey, func(x Entry) bool { e, found = x, true; return false })
	if err != nil {
		return e, err
	}
	if !found {
		return e, ErrNotFound
	}
	return e, nil
}
