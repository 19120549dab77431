package pmwcas

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// BenchmarkBlobKVScaling — what a second client buys, one variable at a
// time: the bench/ mixed stream (50 % GET / 50 % overwrite PUT, uniform
// over 65,536 seven-byte keys, 64-byte values, 100 ns per flush, the
// bench/ store geometry) from one goroutine, from two goroutines on one
// store, and from two goroutines on a store each. The goroutine count is
// the cell's, whatever -cpu says. two-stores over one-store is what the
// two clients lose to state they share inside a store (epoch clock,
// retire lists, allocator free lists, each other's descriptors); twice
// one-goroutine over two-stores is what they lose to the process and the
// machine. Read the ops/s column.
func BenchmarkBlobKVScaling(b *testing.B) {
	const keys, valueLen = 1 << 16, 64
	keyBytes := make([][]byte, keys)
	for i := range keyBytes {
		keyBytes[i] = fmt.Appendf(nil, "%07x", i)
	}
	// One handle per goroutine, minted once: the cells reuse the stores,
	// which stay at 65,536 keys because every PUT is an overwrite.
	open := func(handles int) []*BlobKVHandle {
		s, err := Create(Config{
			Size:         256 << 20,
			Descriptors:  4096,
			MaxHandles:   4*64 + 8,
			FlushLatency: 100 * time.Nanosecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		kv, err := s.BlobKV()
		if err != nil {
			b.Fatal(err)
		}
		hs := make([]*BlobKVHandle, handles)
		for i := range hs {
			hs[i] = kv.NewHandle(int64(i + 1))
		}
		val := make([]byte, valueLen)
		for i := 0; i < keys; i++ {
			k := i * 40503 % keys // scattered, not a sorted bulk load
			if err := hs[0].Put(keyBytes[k], val); err != nil {
				b.Fatal(err)
			}
		}
		return hs
	}
	first, second := open(2), open(1)

	for _, cell := range []struct {
		name string
		hs   []*BlobKVHandle
	}{
		{"goroutines=1/stores=1", first[:1]},
		{"goroutines=2/stores=1", first},
		{"goroutines=2/stores=2", []*BlobKVHandle{first[0], second[0]}},
	} {
		b.Run(cell.name, func(b *testing.B) {
			var wg sync.WaitGroup
			b.ResetTimer()
			for g, h := range cell.hs {
				wg.Add(1)
				go func(g int, h *BlobKVHandle) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g + 1)))
					val := make([]byte, valueLen)
					var buf []byte
					for i := 0; i < b.N/len(cell.hs); i++ {
						key := keyBytes[rng.Intn(keys)]
						var err error
						if i%2 == 0 {
							buf, err = h.GetAppend(key, buf[:0])
						} else {
							binary.LittleEndian.PutUint64(val, uint64(i))
							err = h.Put(key, val)
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
				}(g, h)
			}
			wg.Wait()
			b.ReportMetric(float64(b.N/len(cell.hs)*len(cell.hs))/b.Elapsed().Seconds(), "ops/s")
		})
	}
}
