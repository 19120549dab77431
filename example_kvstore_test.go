package pmwcas_test

import (
	"fmt"
	"os"
	"path/filepath"

	"pmwcas"
)

// A persistent ordered key-value store on the PMwCAS skip list,
// checkpointed to a file and reopened — the "instant recovery" usage the
// paper's introduction motivates: after a restart the index is simply
// there; no log replay, no rebuild.
func Example_kvStore() {
	dir, err := os.MkdirTemp("", "pmwcas-kvstore")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	image := filepath.Join(dir, "nvram.img")
	cfg := pmwcas.Config{Size: 32 << 20}

	// First process lifetime: build the store.
	{
		store, err := pmwcas.Create(cfg)
		if err != nil {
			panic(err)
		}
		list, err := store.SkipList()
		if err != nil {
			panic(err)
		}
		h := list.NewHandle(1)
		for id := uint64(1); id <= 10000; id++ {
			if err := h.Insert(id, id*100); err != nil {
				panic(err)
			}
		}
		// Business as usual: point lookups, updates, deletes.
		if err := h.Update(42, 4242); err != nil {
			panic(err)
		}
		if err := h.Delete(13); err != nil {
			panic(err)
		}

		// Range query, both directions — the reason the list is
		// doubly-linked.
		fmt.Println("orders 40..45, ascending:")
		h.Scan(40, 45, func(e pmwcas.SkipListEntry) bool {
			fmt.Printf("  #%d -> %d\n", e.Key, e.Value)
			return true
		})
		fmt.Println("newest 3 orders (reverse scan):")
		n := 0
		h.ScanReverse(1, pmwcas.MaxSkipListKey, func(e pmwcas.SkipListEntry) bool {
			fmt.Printf("  #%d -> %d\n", e.Key, e.Value)
			n++
			return n < 3
		})

		// Persist the NVRAM image (only what a power cycle would keep).
		if err := store.Checkpoint(image); err != nil {
			panic(err)
		}
	}

	// Second process lifetime: reopen. Recovery is a descriptor-pool
	// scan — bounded by in-flight operations, not by data size.
	{
		store, err := pmwcas.OpenFile(image, cfg)
		if err != nil {
			panic(err)
		}
		list, err := store.SkipList()
		if err != nil {
			panic(err)
		}
		h := list.NewHandle(2)
		v, err := h.Get(42)
		fmt.Println("order 42 after reopen:", v, err)
		_, err = h.Get(13)
		fmt.Println("order 13 after reopen:", err)
		count := 0
		h.Scan(1, pmwcas.MaxSkipListKey, func(pmwcas.SkipListEntry) bool {
			count++
			return true
		})
		fmt.Println("orders after reopen:", count)

		// And it is immediately writable.
		fmt.Println("new order after reopen:", h.Insert(10001, 1000100))
	}
	// Output:
	// orders 40..45, ascending:
	//   #40 -> 4000
	//   #41 -> 4100
	//   #42 -> 4242
	//   #43 -> 4300
	//   #44 -> 4400
	//   #45 -> 4500
	// newest 3 orders (reverse scan):
	//   #10000 -> 1000000
	//   #9999 -> 999900
	//   #9998 -> 999800
	// order 42 after reopen: 4242 <nil>
	// order 13 after reopen: index: key not found
	// orders after reopen: 9999
	// new order after reopen: <nil>
}
