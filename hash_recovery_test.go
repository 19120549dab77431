package pmwcas

import (
	"testing"

	"pmwcas/internal/nvram"
)

// TestHashRecoveryColdDirectory: the hash directory lives in DRAM, so
// recovery neither reads nor rebuilds it. A recovered table starts from
// its first bucket alone and finds every key by walking sibling chains,
// warming the directory as it goes. So the hash shard's recovery (PMwCAS
// recovery plus the table's reopen) costs the same device ops at 4,096
// keys as at 65,536, within 5 %. The test logs the GET bill over the
// first 10^5 GETs after recovery (the warm-up) and over the next 10^5.
func TestHashRecoveryColdDirectory(t *testing.T) {
	ops := func(s nvram.Stats) uint64 { return s.Loads + s.Stores + s.CASes + s.Flushes + s.Fences }
	const window = 100_000
	recoverOps := func(n uint64) uint64 {
		st, err := Create(Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		tab, err := st.HashTable(HashTableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h := tab.NewHandle()
		for k := uint64(1); k <= n; k++ {
			if err := h.Insert(k, k); err != nil {
				t.Fatalf("Insert(%d): %v", k, err)
			}
		}
		if err := st.Crash(); err != nil {
			t.Fatal(err)
		}
		before := ops(st.dev.Stats())
		if _, err := st.Recover(); err != nil {
			t.Fatal(err)
		}
		if tab, err = st.HashTable(HashTableOptions{}); err != nil {
			t.Fatal(err)
		}
		cost := ops(st.dev.Stats()) - before
		// An odd stride visits every key once in the first n GETs.
		h = tab.NewHandle()
		var perGet [2]float64
		for w := range perGet {
			before := ops(st.dev.Stats())
			for i := uint64(w * window); i < uint64((w+1)*window); i++ {
				k := i*40503%n + 1
				if v, err := h.Get(k); err != nil || v != k {
					t.Fatalf("%d keys, GET %d after recovery: Get(%d) = (%d, %v)", n, i, k, v, err)
				}
			}
			perGet[w] = float64(ops(st.dev.Stats())-before) / window
		}
		t.Logf("%d keys: recovery %d device ops; device ops per GET %.3f over the first %d GETs, %.3f over the next %d",
			n, cost, perGet[0], window, perGet[1], window)
		return cost
	}
	small, large := recoverOps(1<<12), recoverOps(1<<16)
	if d := float64(large) / float64(small); d < 0.95 || d > 1.05 {
		t.Fatalf("recovery device ops %d at 65,536 keys vs %d at 4,096: ratio %.3f, want within 5 %%", large, small, d)
	}
}
