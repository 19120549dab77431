package pmwcas_test

import (
	"fmt"
	"sync"

	"pmwcas"
)

// A time-series workload on the Bw-tree: timestamped samples appended in
// order by two writers while a reader runs windowed range scans, with
// splits, consolidations and parent updates happening underneath it.
func Example_rangeScan() {
	store, err := pmwcas.Create(pmwcas.Config{Size: 64 << 20})
	if err != nil {
		panic(err)
	}
	tree, err := store.BwTree(pmwcas.BwTreeOptions{})
	if err != nil {
		panic(err)
	}

	// Writers append samples (key = timestamp, value = reading). The
	// reader scans the first window until it is full, checking every
	// sample it sees.
	const writers = 2
	const samplesPerWriter = 5000
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			h := tree.NewHandle()
			for i := 0; i < samplesPerWriter; i++ {
				ts := uint64(i*writers+wr) + 1
				if err := h.Insert(ts, ts*3); err != nil {
					panic(err)
				}
			}
		}(wr)
	}
	torn := make(chan int)
	go func() {
		h := tree.NewHandle()
		bad := 0
		for n := 0; n < 512; {
			n = 0
			h.Scan(1, 512, func(e pmwcas.BwTreeEntry) bool {
				if e.Value != e.Key*3 {
					bad++
				}
				n++
				return true
			})
		}
		torn <- bad
	}()
	wg.Wait()
	fmt.Println("torn samples seen by the concurrent reader:", <-torn)

	// Windowed aggregation over the final data set.
	h := tree.NewHandle()
	for _, win := range []struct{ from, to uint64 }{
		{1, 1000}, {4001, 5000}, {9001, 10000},
	} {
		var sum, n uint64
		h.Scan(win.from, win.to, func(e pmwcas.BwTreeEntry) bool {
			sum += e.Value
			n++
			return true
		})
		fmt.Printf("window [%5d, %5d]: %4d samples, mean reading %.1f\n",
			win.from, win.to, n, float64(sum)/float64(n))
	}

	total, ordered, prev := 0, true, uint64(0)
	h.Scan(1, pmwcas.MaxBwTreeKey, func(e pmwcas.BwTreeEntry) bool {
		ordered = ordered && e.Key > prev
		prev = e.Key
		total++
		return true
	})
	fmt.Printf("full scan: %d samples, in timestamp order: %v\n", total, ordered)
	// Output:
	// torn samples seen by the concurrent reader: 0
	// window [    1,  1000]: 1000 samples, mean reading 1501.5
	// window [ 4001,  5000]: 1000 samples, mean reading 13501.5
	// window [ 9001, 10000]: 1000 samples, mean reading 28501.5
	// full scan: 10000 samples, in timestamp order: true
}
