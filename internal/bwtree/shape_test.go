package bwtree

import (
	"math/rand"
	"testing"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

// TestInnerPagesCarryNoChain: a PMwCAS-mode SMO rewrites the parent it
// changes inside its own PMwCAS, and splits a parent at capacity before
// it adds a route. So after 16,384 inserts in a scattered order (and,
// with merging on, deletes of half of them) no inner page carries a
// delta record, no base page holds more entries than its kind's
// capacity, and Check is clean. The baseline still posts the paper's
// index-entry deltas.
func TestInnerPagesCarryNoChain(t *testing.T) {
	// Room for 16,384 keys in 16-entry leaves and 8-entry inner pages.
	spec := []alloc.Class{
		{BlockSize: 64, Count: 16384},
		{BlockSize: 512, Count: 4096},
		{BlockSize: 1024, Count: 64},
	}
	const n = 16384
	for _, r := range []struct {
		name       string
		mode       core.Mode
		smo        SMOMode
		mergeBelow int
	}{
		{"PMwCAS-Persistent", core.Persistent, SMOPMwCAS, 0},
		{"MwCAS-Volatile", core.Volatile, SMOPMwCAS, 0},
		{"PMwCAS-Persistent-Merge", core.Persistent, SMOPMwCAS, 4},
		{"SingleCAS-Volatile", core.Volatile, SMOSingleCAS, 0},
	} {
		t.Run(r.name, func(t *testing.T) {
			e := newTreeEnvSpec(t, r.mode, r.smo, spec, func(c *Config) { c.MergeBelow = r.mergeBelow })
			h := e.tree.NewHandle()
			order := rand.New(rand.NewSource(1)).Perm(n)
			for _, i := range order {
				if err := h.Insert(uint64(i)+1, uint64(i)); err != nil {
					t.Fatalf("Insert(%d): %v", i+1, err)
				}
			}
			if r.mergeBelow > 0 {
				for _, i := range order[:n/2] {
					if err := h.Delete(uint64(i) + 1); err != nil {
						t.Fatalf("Delete(%d): %v", i+1, err)
					}
				}
			}
			innerDeltas, indexDeltas := 0, 0
			for lpid := uint64(RootLPID); lpid < core.PCASRead(e.dev, e.tree.nextLPID); lpid++ {
				rec := nvram.Offset(e.dev.Load(e.tree.mappingOff(lpid)) &^ core.FlagsMask)
				deltas := 0
				for ; rec != 0 && chainNext(e.dev, rec) != 0; rec = chainNext(e.dev, rec) {
					deltas++
					if typ := e.dev.Load(rec+recMetaOff) & 0xff; typ == recIndexEntry || typ == recIndexDelete {
						indexDeltas++
					}
				}
				if rec == 0 || e.dev.Load(rec+recMetaOff)&0xff == recRemoved {
					continue
				}
				meta := e.dev.Load(rec + recMetaOff)
				leaf := meta&0xff == recBaseLeaf
				if count := int(meta >> 24); count > e.tree.capacity(leaf) {
					t.Errorf("LPID %d (leaf %v): a base page of %d entries, capacity %d", lpid, leaf, count, e.tree.capacity(leaf))
				}
				if !leaf {
					innerDeltas += deltas
				}
			}
			st := e.tree.Stats(h)
			t.Logf("height %d, %d inner pages with %d delta records (%d index deltas), %d leaves",
				st.Height, st.Inners, innerDeltas, indexDeltas, st.Leaves)
			if st.InnerDeltas != innerDeltas {
				t.Errorf("Stats.InnerDeltas = %d, the chains hold %d", st.InnerDeltas, innerDeltas)
			}
			if r.smo == SMOSingleCAS {
				if indexDeltas == 0 {
					t.Error("the baseline posted no index-entry delta")
				}
				return
			}
			if innerDeltas != 0 {
				t.Errorf("inner pages carry %d delta records, want 0", innerDeltas)
			}
			if _, _, err := Check(e.dev, e.mapReg); err != nil {
				t.Errorf("Check: %v", err)
			}
		})
	}
}
