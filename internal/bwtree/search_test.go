package bwtree

import (
	"math/rand"
	"sync"
	"testing"

	"pmwcas/internal/core"
)

// TestSearchMatchesResolve is the differential check on the in-place
// walk. Trees are built by three concurrent goroutines of random
// inserts, updates and deletes; between rounds, every live page is
// probed at every key that matters to it (each key a record names, the
// keys beside them, the fences and the keys past them). For each probe,
// search must agree with resolve followed by a lookup: on the fences,
// the chain length, whether the key redirects past the page, and the
// found flag with its value (leaf) or child (inner). The merging run
// puts index-delete deltas on inner chains.
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
			// Preload every eighth key from one goroutine: concurrent writers
			// on an empty tree's single leaf can starve its consolidation
			// (ROADMAP item 8), and then nothing ever splits.
			for k := uint64(1); k <= 1000; k += 8 {
				if err := check.Insert(k, k); err != nil {
					t.Fatalf("preload %d: %v", k, err)
				}
			}
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
			t.Logf("%d (page, key) pairs; chains holding index-entry %d, index-delete %d, split %d",
				pairs, seen[recIndexEntry], seen[recIndexDelete], seen[recSplit])
			if seen[recIndexEntry] == 0 {
				t.Error("no index-entry delta was ever probed")
			}
			if r.mergeBelow > 0 && seen[recIndexDelete] == 0 {
				t.Error("merging on, but no index-delete delta was ever probed")
			}
		})
	}
}

// checkSearch probes every live page of a quiescent tree (see
// TestSearchMatchesResolve), counts the record types on the chains into
// seen, and returns the number of (page, key) pairs checked.
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
		v := h.resolve(head)
		if v.removed {
			if s := tr.search(head, 1); !s.removed {
				t.Fatalf("LPID %d: resolve says removed, search does not", lpid)
			}
			continue
		}
		// The probe keys: every key a record names, the fences, and the
		// neighbours of each.
		var keys []uint64
		split := false
		for _, rec := range tr.chainBlocks(head) {
			typ := tr.recType(rec)
			seen[typ]++
			switch typ {
			case recBaseLeaf, recBaseInner:
				for i := 0; i < tr.recCount(rec); i++ {
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
				if s.removed || s.isLeaf != v.isLeaf || s.chain != v.chain ||
					s.low != v.low || s.high != v.high || s.side != v.side || (s.baseHigh != s.high) != split {
					t.Fatalf("LPID %d key %d: search page %+v, resolve low %d high %d side %d chain %d leaf %v split %v",
						lpid, key, s, v.low, v.high, v.side, v.chain, v.isLeaf, split)
				}
				if key > v.high {
					continue // both redirect to v.side
				}
				found, val := lookup(&v, key)
				if s.found != found || (found && s.val != val) {
					t.Fatalf("LPID %d (leaf %v) key %d: search (%v, %d), resolve (%v, %d)",
						lpid, v.isLeaf, key, s.found, s.val, found, val)
				}
			}
		}
	}
	return pairs
}

// lookup answers key from a resolved view: the value in a leaf, the
// routing child in an inner page.
func lookup(v *pageView, key uint64) (bool, uint64) {
	if v.isLeaf {
		i := leafSearch(v.leafEntries, key, false)
		if i < len(v.leafEntries) && v.leafEntries[i].Key == key {
			return true, v.leafEntries[i].Value
		}
		return false, 0
	}
	i := innerSearch(v.innerEntries, key, false)
	if i == len(v.innerEntries) {
		return false, 0
	}
	return true, v.innerEntries[i].Child
}
