package pmwcas_test

import (
	"fmt"

	"pmwcas"
)

// Quickstart: the PMwCAS primitive itself — atomically (and durably)
// swing multiple unrelated NVRAM words in one lock-free operation, then
// prove it survived a power failure.
func Example_quickstart() {
	// A store bundles the simulated NVRAM device, the persistent
	// allocator, and the PMwCAS descriptor pool.
	store, err := pmwcas.Create(pmwcas.Config{Size: 16 << 20})
	if err != nil {
		panic(err)
	}
	h := store.PMwCASHandle()

	// Three application root words — durable, fixed addresses.
	alice := store.RootWord(0)
	bob := store.RootWord(1)
	epoch := store.RootWord(2)

	// Seed balances: two accounts and a generation counter.
	seed, err := h.AllocateDescriptor(0)
	if err != nil {
		panic(err)
	}
	seed.AddWord(alice, 0, 100)
	seed.AddWord(bob, 0, 50)
	seed.AddWord(epoch, 0, 1)
	if ok, err := seed.Execute(); err != nil || !ok {
		panic(fmt.Sprintf("seeding failed: ok=%v err=%v", ok, err))
	}
	fmt.Printf("seeded: alice=%d bob=%d epoch=%d\n",
		h.Read(alice), h.Read(bob), h.Read(epoch))

	// Transfer 30 from alice to bob and bump the generation — three words,
	// one atomic, durable operation. No locks, no logging, no recovery
	// code.
	transfer, err := h.AllocateDescriptor(0)
	if err != nil {
		panic(err)
	}
	transfer.AddWord(alice, 100, 70)
	transfer.AddWord(bob, 50, 80)
	transfer.AddWord(epoch, 1, 2)
	if ok, err := transfer.Execute(); err != nil || !ok {
		panic(fmt.Sprintf("transfer failed: ok=%v err=%v", ok, err))
	}
	fmt.Printf("after transfer: alice=%d bob=%d epoch=%d\n",
		h.Read(alice), h.Read(bob), h.Read(epoch))

	// A stale retry of the same transfer must fail — and change nothing.
	replay, _ := h.AllocateDescriptor(0)
	replay.AddWord(alice, 100, 70)
	replay.AddWord(bob, 50, 80)
	replay.AddWord(epoch, 1, 2)
	if ok, _ := replay.Execute(); ok {
		panic("stale replay succeeded")
	}
	fmt.Println("stale replay correctly rejected, balances untouched")

	// Power failure. Everything not written back to NVRAM is gone;
	// recovery rolls in-flight operations forward or back.
	if err := store.Crash(); err != nil {
		panic(err)
	}
	if _, err := store.Recover(); err != nil {
		panic(err)
	}
	h2 := store.PMwCASHandle()
	fmt.Printf("after crash+recovery: alice=%d bob=%d epoch=%d\n",
		h2.Read(alice), h2.Read(bob), h2.Read(epoch))
	// Output:
	// seeded: alice=100 bob=50 epoch=1
	// after transfer: alice=70 bob=80 epoch=2
	// stale replay correctly rejected, balances untouched
	// after crash+recovery: alice=70 bob=80 epoch=2
}
