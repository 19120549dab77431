package pmwcas_test

import (
	"fmt"

	"pmwcas"
)

// The core primitive: atomically (and durably) swing multiple words.
func Example() {
	store, err := pmwcas.Create(pmwcas.Config{Size: 16 << 20})
	if err != nil {
		panic(err)
	}
	h := store.PMwCASHandle()

	a, b := store.RootWord(0), store.RootWord(1)
	d, _ := h.AllocateDescriptor(0)
	d.AddWord(a, 0, 100)
	d.AddWord(b, 0, 200)
	ok, _ := d.Execute()
	fmt.Println("committed:", ok)
	fmt.Println(h.Read(a), h.Read(b))
	// Output:
	// committed: true
	// 100 200
}

// A failed PMwCAS changes nothing — all-or-nothing semantics.
func ExampleDescriptor_Execute_failure() {
	store, _ := pmwcas.Create(pmwcas.Config{Size: 16 << 20})
	h := store.PMwCASHandle()
	a, b := store.RootWord(0), store.RootWord(1)

	d, _ := h.AllocateDescriptor(0)
	d.AddWord(a, 0, 1)
	d.AddWord(b, 99 /* stale expectation */, 2)
	ok, _ := d.Execute()
	fmt.Println("committed:", ok)
	fmt.Println(h.Read(a), h.Read(b))
	// Output:
	// committed: false
	// 0 0
}

// Crash and recover: committed operations survive power failures.
func ExampleStore_Recover() {
	store, _ := pmwcas.Create(pmwcas.Config{Size: 16 << 20})
	h := store.PMwCASHandle()
	d, _ := h.AllocateDescriptor(0)
	d.AddWord(store.RootWord(0), 0, 42)
	d.Execute()

	store.Crash()
	store.Recover()
	fmt.Println(store.PMwCASHandle().Read(store.RootWord(0)))
	// Output:
	// 42
}

// The doubly-linked skip list: ordered operations and reverse scans.
func ExampleStore_SkipList() {
	store, _ := pmwcas.Create(pmwcas.Config{Size: 16 << 20})
	list, _ := store.SkipList()
	h := list.NewHandle(1)

	for _, k := range []uint64{30, 10, 20} {
		h.Insert(k, k*10)
	}
	h.ScanReverse(1, pmwcas.MaxSkipListKey, func(e pmwcas.SkipListEntry) bool {
		fmt.Println(e.Key, e.Value)
		return true
	})
	// Output:
	// 30 300
	// 20 200
	// 10 100
}

// The Bw-tree: a lock-free B+-tree with range scans.
func ExampleStore_BwTree() {
	store, _ := pmwcas.Create(pmwcas.Config{Size: 16 << 20})
	tree, _ := store.BwTree(pmwcas.BwTreeOptions{})
	h := tree.NewHandle()

	for k := uint64(1); k <= 5; k++ {
		h.Insert(k, k*k)
	}
	h.Scan(2, 4, func(e pmwcas.BwTreeEntry) bool {
		fmt.Println(e.Key, e.Value)
		return true
	})
	// Output:
	// 2 4
	// 3 9
	// 4 16
}

// String keys via the order-preserving codec.
func ExampleKeyPrefixRange() {
	store, _ := pmwcas.Create(pmwcas.Config{Size: 16 << 20})
	list, _ := store.SkipList()
	h := list.NewHandle(1)

	for _, sym := range []string{"ant", "ape", "bee"} {
		h.Insert(pmwcas.MustEncodeKey(sym), 1)
	}
	lo, hi, _ := pmwcas.KeyPrefixRange([]byte("a"))
	h.Scan(lo, hi, func(e pmwcas.SkipListEntry) bool {
		s, _ := pmwcas.DecodeKeyString(e.Key)
		fmt.Println(s)
		return true
	})
	// Output:
	// ant
	// ape
}

// Arbitrary-length values through the blob KV layer.
func ExampleStore_BlobKV() {
	store, _ := pmwcas.Create(pmwcas.Config{Size: 16 << 20})
	kv, _ := store.BlobKV()
	h := kv.NewHandle(1)

	h.Put([]byte("greet"), []byte("hello, nonvolatile world"))
	v, _ := h.Get([]byte("greet"))
	fmt.Println(string(v))

	// A second Put replaces the record: the PMwCAS that installs the new
	// one frees the old one.
	h.Put([]byte("greet"), []byte("hello again"))
	v, _ = h.Get([]byte("greet"))
	fmt.Println(string(v))

	h.Delete([]byte("greet"))
	_, err := h.Get([]byte("greet"))
	fmt.Println(err) // pmwcas.ErrNotFound
	// Output:
	// hello, nonvolatile world
	// hello again
	// index: key not found
}
