package pmwcas

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"pmwcas/internal/hashtable"
)

// TestHashDirectoryReclaimRace pins the directory-word read protocol
// against the sealed-bucket reclaim PMwCAS. Directory entries are
// multi-word targets (the reclaim descriptor is installed in the planted
// entry, and straggler helpers can transiently re-install it), so every
// directory read must detect descriptor pointers and fall back to the
// helping protocol read. Before the fix, locate read entries with a
// PCAS-level hint read that returned an in-flight descriptor pointer
// verbatim and dereferenced it as a bucket offset — panicking with an
// out-of-range device access within a few hundred operations of this
// workload. YieldEvery=32 forces a goroutine switch every few protocol
// steps, so slices regularly end with a reclaim descriptor installed in
// a directory entry while another worker walks it; the growth-heavy mix
// keeps splits (and their opportunistic reclaims) in flight throughout.
func TestHashDirectoryReclaimRace(t *testing.T) {
	cfg := Config{
		Size:               8 << 20,
		Descriptors:        256,
		MaxHandles:         8,
		BwTreeMappingSlots: 1 << 10,
		HashDirSlots:       1 << 8,
		YieldEvery:         32,
	}
	st, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tab, err := st.HashTable(HashTableOptions{SlotsPerBucket: 2})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const opsPerWorker = 3000
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		h := tab.NewHandle()
		wg.Add(1)
		go func(w int, h *HashTableHandle) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < opsPerWorker; i++ {
				key := uint64(rng.Intn(4096)) + 1
				switch rng.Intn(6) {
				case 0, 1, 2, 3:
					err := h.Insert(key, key*3)
					if errors.Is(err, hashtable.ErrKeyExists) {
						err = h.Update(key, key*5)
						if errors.Is(err, hashtable.ErrNotFound) {
							err = nil // another worker's Delete landed in between
						}
					}
					if err != nil {
						errc <- err
						return
					}
				case 4:
					if err := h.Delete(key); err != nil && !errors.Is(err, hashtable.ErrNotFound) {
						errc <- err
						return
					}
				case 5:
					if _, err := h.Get(key); err != nil && !errors.Is(err, hashtable.ErrNotFound) {
						errc <- err
						return
					}
				}
			}
		}(w, h)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// Epoch-deferred descriptor recycling may still be pending; audit the
	// store the way the crash sweep does, through a power cut + recovery.
	if err := st.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CheckInvariants(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}
