package bwtree

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

// TestSearchMatchesResolve is the differential check on the two page
// readers. Trees are built from empty by three concurrent goroutines of
// random inserts, updates and deletes; between rounds, every live page
// is read by replay (the reference below) and by resolve, which must
// agree on the page's header and its whole content, and is probed with
// search at every key that matters to it (each key a record names, the
// keys beside them, the fences and the keys past them). For each probe,
// search must agree with replay followed by a lookup on what a descent
// decides with: the upper fence, the sibling a key past it moves to, the
// chain length, and the found flag with its value (leaf) or child
// (inner). The baseline run posts index-entry deltas to inner chains;
// the last check of every run also reads index deltas planted the way a
// PMwCAS tree posted them before its SMOs rewrote the parent.
func TestSearchMatchesResolve(t *testing.T) {
	type run struct {
		name       string
		mode       core.Mode
		smo        SMOMode
		mergeBelow int
	}
	var runs []run
	for _, vt := range variants() {
		runs = append(runs, run{vt.name, vt.mode, vt.smo, 0})
	}
	runs = append(runs, run{"PMwCAS-Persistent-Merge", core.Persistent, SMOPMwCAS, 4})
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			e := newTreeEnv(t, r.mode, r.smo, func(c *Config) { c.MergeBelow = r.mergeBelow })
			seen := map[uint64]int{} // record type -> chains holding it
			pairs := 0
			// Handles are a bounded resource: make four and reuse them.
			check := e.tree.NewHandle()
			writers := []*Handle{e.tree.NewHandle(), e.tree.NewHandle(), e.tree.NewHandle()}
			for round := 0; round < 6; round++ {
				// Even rounds grow the tree, odd rounds drain it.
				insert, del := 3, 1
				if round%2 == 1 {
					insert, del = 1, 3
				}
				var wg sync.WaitGroup
				for g, h := range writers {
					wg.Add(1)
					go func(h *Handle, seed int64) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(seed))
						for i := 0; i < 400; i++ {
							k := uint64(rng.Intn(1000) + 1)
							switch op := rng.Intn(insert + del + 1); {
							case op < insert:
								h.Insert(k, k+uint64(i))
							case op < insert+del:
								h.Delete(k)
							default:
								h.Update(k, k+uint64(i))
							}
						}
					}(h, int64(round*3+g))
				}
				wg.Wait()
				pairs += checkSearch(t, e.tree, check, seen)
			}
			if r.smo == SMOSingleCAS && seen[recIndexEntry] == 0 {
				t.Error("the baseline posted no index-entry delta")
			}
			plantIndexDeltas(t, e.tree, check)
			pairs += checkSearch(t, e.tree, check, seen)
			t.Logf("%d (page, key) pairs; chains holding index-entry %d, index-delete %d, split %d",
				pairs, seen[recIndexEntry], seen[recIndexDelete], seen[recSplit])
			if seen[recIndexEntry] == 0 || seen[recIndexDelete] == 0 {
				t.Error("an index delta type was never probed")
			}
		})
	}
}

// checkSearch reads every live page of a quiescent tree (see
// TestSearchMatchesResolve), counts the record types on the chains into
// seen, and returns the number of (page, key) pairs probed.
func checkSearch(t *testing.T, tr *Tree, h *Handle, seen map[uint64]int) int {
	t.Helper()
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()
	pairs := 0
	for lpid := uint64(RootLPID); lpid < core.PCASRead(tr.dev, tr.nextLPID); lpid++ {
		head := h.readMapping(lpid)
		if head == 0 {
			continue
		}
		v := replay(tr, head)
		got := h.resolve(head)
		if got.removed != v.removed {
			t.Fatalf("LPID %d: resolve says removed %v, replay %v", lpid, got.removed, v.removed)
		}
		if v.removed {
			if s := tr.search(head, 1); !s.removed {
				t.Fatalf("LPID %d: replay says removed, search does not", lpid)
			}
			continue
		}
		if got.isLeaf != v.isLeaf || got.chain != v.chain || got.low != v.low || got.high != v.high ||
			got.side != v.side || !slices.Equal(got.entries, v.entries) {
			t.Fatalf("LPID %d: resolve %+v, replay %+v", lpid, got, v)
		}
		// The probe keys: every key a record names, the fences, and the
		// neighbours of each.
		var keys []uint64
		split := false
		for rec := head; rec != 0; rec = chainNext(tr.dev, rec) {
			typ := tr.dev.Load(rec+recMetaOff) & 0xff
			seen[typ]++
			switch typ {
			case recBaseLeaf, recBaseInner:
				for i := 0; i < int(tr.dev.Load(rec+recMetaOff)>>24); i++ {
					keys = append(keys, tr.dev.Load(tr.entryOff(rec, i)))
				}
			case recIndexEntry:
				keys = append(keys, tr.dev.Load(rec+idxLowOff), tr.dev.Load(rec+idxMidOff), tr.dev.Load(rec+idxHighOff))
			case recIndexDelete:
				keys = append(keys, tr.dev.Load(rec+idxDelLowOff), tr.dev.Load(rec+idxDelHighOff))
			case recSplit:
				split = true
				keys = append(keys, tr.dev.Load(rec+splitSepOff))
			default:
				keys = append(keys, tr.dev.Load(rec+deltaKeyOff))
			}
		}
		keys = append(keys, v.low, v.high)
		for _, k := range keys {
			for _, key := range []uint64{k - 1, k, k + 1} {
				if key == 0 || key >= MaxKey {
					continue
				}
				pairs++
				s := tr.search(head, key)
				if s.removed || s.isLeaf != v.isLeaf || s.chain != v.chain || s.high != v.high ||
					tr.sibling(&s) != v.side || (s.baseHigh != s.high) != split {
					t.Fatalf("LPID %d key %d: search page %+v sibling %d, replay high %d side %d chain %d leaf %v split %v",
						lpid, key, s, tr.sibling(&s), v.high, v.side, v.chain, v.isLeaf, split)
				}
				if key > v.high {
					continue // both redirect to v.side
				}
				found, val := lookup(&v, key)
				if s.found != found || (found && s.val != val) {
					t.Fatalf("LPID %d (leaf %v) key %d: search (%v, %d), replay (%v, %d)",
						lpid, v.isLeaf, key, s.found, s.val, found, val)
				}
			}
		}
	}
	return pairs
}

// plantIndexDeltas prepends to every inner page of a quiescent tree with
// two routes or more the index deltas its SMOs posted before they
// rewrote the parent: an index-delete delta folding its first two routes
// into the first child, then an index-entry delta splitting its last
// route in two. Descents through such a page reach the right children
// by side links; only the page readers are checked on it.
func plantIndexDeltas(t *testing.T, tr *Tree, h *Handle) {
	t.Helper()
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()
	for lpid := uint64(RootLPID); lpid < core.PCASRead(tr.dev, tr.nextLPID); lpid++ {
		head := h.readMapping(lpid)
		if head == 0 {
			continue
		}
		v := replay(tr, head)
		if v.removed || v.isLeaf || len(v.entries) < 2 {
			continue
		}
		es := v.entries
		post := func(typ uint64, body [5]uint64, n int) {
			d, err := buildDelta(tr, h.ah, typ, head, tr.recChain(nvram.Offset(head))+1, body, n, owner{})
			if err != nil {
				t.Fatal(err)
			}
			head = uint64(d)
		}
		post(recIndexDelete, [5]uint64{v.low, es[1].Key, es[0].Value}, 3)
		last := len(es) - 1
		low := v.low
		if last > 1 {
			low = es[last-1].Key
		}
		if mid := low + (es[last].Key-low)/2; mid > low {
			post(recIndexEntry, [5]uint64{low, mid, es[last].Key, es[last].Value, es[0].Value}, 5)
		}
		tr.dev.Store(tr.mappingOff(lpid), head)
	}
}

// replay is the reference page reader: it collects the chain's deltas,
// then applies them oldest-first to a copy of the base, each the way it
// changed the page when it was posted. A split delta truncates the page
// at its separator; an index-entry delta splits the routing entry whose
// key is its high, and an index-delete delta folds the entries in its
// range into one; either is a no-op when that entry is gone.
func replay(tr *Tree, head uint64) pageView {
	dev := tr.dev
	v := pageView{pageHdr: pageHdr{head: nvram.Offset(head)}}
	var deltas []nvram.Offset
	rec := v.head
	for {
		typ := dev.Load(rec+recMetaOff) & 0xff
		if typ == recRemoved {
			v.removed = true
			return v
		}
		if typ == recBaseLeaf || typ == recBaseInner {
			v.isLeaf = typ == recBaseLeaf
			break
		}
		deltas = append(deltas, rec)
		rec = nvram.Offset(dev.Load(rec + recNextOff))
	}
	v.chain = len(deltas)
	v.low, v.high, v.side = dev.Load(rec+baseLowOff), dev.Load(rec+baseHighOff), dev.Load(rec+baseSideOff)
	for i := 0; i < int(dev.Load(rec+recMetaOff)>>24); i++ {
		e := tr.entryOff(rec, i)
		v.entries = append(v.entries, Entry{Key: dev.Load(e), Value: dev.Load(e + 8)})
	}
	// at is the first entry at or above key (above it when excl).
	at := func(key uint64, excl bool) int {
		return sort.Search(len(v.entries), func(i int) bool {
			k := v.entries[i].Key
			return k > key || (!excl && k == key)
		})
	}
	for i := len(deltas) - 1; i >= 0; i-- {
		d := deltas[i]
		w := func(off nvram.Offset) uint64 { return dev.Load(d + off) }
		switch w(recMetaOff) & 0xff {
		case recInsert, recUpdate:
			key, val := w(deltaKeyOff), w(deltaValOff)
			if j := at(key, false); j < len(v.entries) && v.entries[j].Key == key {
				v.entries[j].Value = val
			} else {
				v.entries = slices.Insert(v.entries, j, Entry{Key: key, Value: val})
			}
		case recDelete:
			key := w(deltaKeyOff)
			if j := at(key, false); j < len(v.entries) && v.entries[j].Key == key {
				v.entries = slices.Delete(v.entries, j, j+1)
			}
		case recSplit:
			v.high, v.side = w(splitSepOff), w(splitSiblingOff)
			v.entries = v.entries[:at(v.high, true)]
		case recIndexEntry:
			high := w(idxHighOff)
			if j := at(high, false); j < len(v.entries) && v.entries[j].Key == high {
				v.entries[j].Value = w(idxRightOff)
				v.entries = slices.Insert(v.entries, j, Entry{Key: w(idxMidOff), Value: w(idxLeftOff)})
			}
		case recIndexDelete:
			high := w(idxDelHighOff)
			if j := at(high, false); j < len(v.entries) && v.entries[j].Key == high {
				v.entries[j].Value = w(idxDelChildOff)
				v.entries = slices.Delete(v.entries, at(w(idxDelLowOff), true), j)
			}
		default:
			panic("replay: corrupt delta type")
		}
	}
	return v
}

// lookup answers key from a page's content: the value in a leaf, the
// routing child in an inner page.
func lookup(v *pageView, key uint64) (bool, uint64) {
	i := sort.Search(len(v.entries), func(i int) bool { return v.entries[i].Key >= key })
	if i == len(v.entries) || (v.isLeaf && v.entries[i].Key != key) {
		return false, 0
	}
	return true, v.entries[i].Value
}
