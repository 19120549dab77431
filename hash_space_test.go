package pmwcas

import (
	"testing"
)

// TestHashSpaceIsLiveBuckets pins the hash table's space: a split adds
// one bucket and retires none, so after any history the table's blocks
// are exactly its first bucket plus one per split, every one of them
// live. A default-geometry table loads 65,536 keys, then churns half of
// them out for as many new ones; after each phase a crash, recovery and
// audit must find blocks in use = buckets = live buckets = splits + 1.
func TestHashSpaceIsLiveBuckets(t *testing.T) {
	st, err := Create(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 1 << 16
	var splits uint64
	phase := func(name string, ops func(h *HashTableHandle)) {
		tab, err := st.HashTable(HashTableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ops(tab.NewHandle())
		// The split counter starts from zero at every open.
		splits += st.Stats().HashSplits
		if err := st.Crash(); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recover(); err != nil {
			t.Fatal(err)
		}
		ds, err := st.CheckInvariants(CheckOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ds.Hash) != n {
			t.Fatalf("%s: %d keys recovered, want %d", name, len(ds.Hash), n)
		}
		hc, inUse := ds.HashCheck, st.Stats().AllocBlocks
		t.Logf("%s: %d splits, %d buckets, %d blocks in use", name, splits, hc.Buckets, inUse)
		if inUse != uint64(hc.Buckets) || hc.Buckets != hc.Live || uint64(hc.Live) != splits+1 {
			t.Fatalf("%s: %d blocks in use, %d buckets, %d live, %d splits: want in use = buckets = live = splits + 1",
				name, inUse, hc.Buckets, hc.Live, splits)
		}
	}
	phase("load", func(h *HashTableHandle) {
		for k := uint64(1); k <= n; k++ {
			if err := h.Insert(k, k); err != nil {
				t.Fatalf("Insert(%d): %v", k, err)
			}
		}
	})
	phase("churn", func(h *HashTableHandle) {
		for k := uint64(1); k <= n; k += 2 {
			if err := h.Delete(k); err != nil {
				t.Fatalf("Delete(%d): %v", k, err)
			}
			if err := h.Insert(n+k, k); err != nil {
				t.Fatalf("Insert(%d): %v", n+k, err)
			}
		}
	})
}
