package pmwcas

// One testing.B benchmark per experiment in DESIGN.md's index (E1-E9).
// These are the micro-scale versions of cmd/experiments: quick, b.N
// driven, with custom metrics (flushes/op, success rate, recovery µs)
// reported alongside ns/op. For the full paper-style tables, run:
//
//	go run ./cmd/experiments
//
// Absolute numbers are simulator numbers; see EXPERIMENTS.md for how to
// read them against the paper.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmwcas/internal/harness"
	"pmwcas/internal/htm"
)

// microBench adapts one RunMicro cell to testing.B.
func microBench(b *testing.B, variant harness.MicroVariant, array, words int) {
	b.Helper()
	r, err := harness.RunMicro(harness.MicroConfig{
		Variant:    variant,
		Threads:    2,
		OpsPer:     b.N/2 + 1,
		ArrayWords: array,
		WordsPerOp: words,
		YieldEvery: 4,
		HTM:        htm.Config{},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.SuccessRate, "success")
	b.ReportMetric(r.FlushesPer, "flushes/op")
	b.ReportMetric(r.HelpsPer, "helps/op")
	b.ReportMetric(r.OpsPerSec, "committed/s")
}

// BenchmarkE1MicroLowContention — Fig. "MwCAS microbenchmark, low
// contention": 4-word MwCAS over a 100k-word array.
func BenchmarkE1MicroLowContention(b *testing.B) {
	for _, v := range []harness.MicroVariant{harness.VariantMwCAS, harness.VariantPMwCAS, harness.VariantHTM} {
		b.Run(string(v), func(b *testing.B) { microBench(b, v, 100000, 4) })
	}
}

// BenchmarkE2MicroHighContention — Fig. "MwCAS microbenchmark, high
// contention": 4-word MwCAS over an 8-word array.
func BenchmarkE2MicroHighContention(b *testing.B) {
	for _, v := range []harness.MicroVariant{harness.VariantMwCAS, harness.VariantPMwCAS, harness.VariantHTM} {
		b.Run(string(v), func(b *testing.B) { microBench(b, v, 8, 4) })
	}
}

// BenchmarkE3WordCount — cost versus words per descriptor.
func BenchmarkE3WordCount(b *testing.B) {
	for _, words := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("pmwcas-%dw", words), func(b *testing.B) {
			microBench(b, harness.VariantPMwCAS, 100000, words)
		})
	}
}

// BenchmarkE4FlushAnatomy — flushes and helps per op across contention.
func BenchmarkE4FlushAnatomy(b *testing.B) {
	for _, cell := range []struct {
		name  string
		array int
	}{{"low", 100000}, {"medium", 1024}, {"high", 8}} {
		b.Run(cell.name, func(b *testing.B) {
			microBench(b, harness.VariantPMwCAS, cell.array, 4)
		})
	}
}

// indexBenchStore builds a store for one index-bench variant.
func indexBenchStore(b *testing.B, mode Mode) *Store {
	b.Helper()
	s, err := Create(Config{
		Size:        128 << 20,
		Mode:        mode,
		Descriptors: 2048,
		MaxHandles:  64,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

const benchKeySpace = 1 << 16

// preloadIndex inserts keySpace/2 spread keys.
func preloadIndex(b *testing.B, ops IndexHandle) {
	b.Helper()
	for i := 0; i < benchKeySpace/2; i++ {
		k := uint64(i*2 + 1)
		if err := ops.Insert(k, k); err != nil {
			b.Fatal(err)
		}
	}
}

func openIndex(b *testing.B, s *Store, name string, opt IndexOptions) func(seed int64) IndexHandle {
	b.Helper()
	newHandle, err := s.OpenIndex(name, opt)
	if err != nil {
		b.Fatal(err)
	}
	return newHandle
}

// runIndexBench drives b.N mixed operations through handles minted by
// newHandle (Store.OpenIndex's result, or a closure over a CAS list).
func runIndexBench(b *testing.B, newHandle func(seed int64) IndexHandle, mix harness.Mix, flushes func() uint64) {
	b.Helper()
	preloadIndex(b, newHandle(0))
	var seq atomic.Int64
	before := flushes()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ops := newHandle(seq.Add(1))
		kg := harness.NewKeyGen(harness.Uniform, benchKeySpace, seq.Add(1))
		i := 0
		for pb.Next() {
			k := kg.Next()
			v := uint64(i)&0xffff + 1 // varying write values (no-op updates would skew)
			switch {
			case i%100 < mix.Reads:
				ops.Get(k)
			case i%100 < mix.Reads+mix.Inserts:
				ops.Insert(k, v)
			case i%100 < mix.Reads+mix.Inserts+mix.Updates:
				if ops.Update(k, v) != nil {
					ops.Insert(k, v)
				}
			case i%100 < mix.Reads+mix.Inserts+mix.Updates+mix.Deletes:
				ops.Delete(k)
			default:
				ops.Scan(k, k+100, func(IndexEntry) bool { return true })
			}
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(flushes()-before)/float64(b.N), "flushes/op")
}

// BenchmarkE5SkipList — skip list variants under the paper's two mixes.
func BenchmarkE5SkipList(b *testing.B) {
	for _, mix := range []struct {
		name string
		mix  harness.Mix
	}{{"ReadHeavy", harness.ReadHeavy}, {"UpdateHeavy", harness.UpdateHeavy}} {
		b.Run("cas/"+mix.name, func(b *testing.B) {
			s := indexBenchStore(b, Volatile)
			cl, err := s.CASSkipList()
			if err != nil {
				b.Fatal(err)
			}
			runIndexBench(b, func(seed int64) IndexHandle { return cl.NewHandle(seed) }, mix.mix,
				func() uint64 { return s.Device().Stats().Flushes })
		})
		b.Run("mwcas/"+mix.name, func(b *testing.B) {
			s := indexBenchStore(b, Volatile)
			runIndexBench(b, openIndex(b, s, "skiplist", IndexOptions{}), mix.mix,
				func() uint64 { return s.Device().Stats().Flushes })
		})
		b.Run("pmwcas/"+mix.name, func(b *testing.B) {
			s := indexBenchStore(b, Persistent)
			runIndexBench(b, openIndex(b, s, "skiplist", IndexOptions{}), mix.mix,
				func() uint64 { return s.Device().Stats().Flushes })
		})
	}
}

// BenchmarkE6BwTree — Bw-tree variants under the paper's two mixes.
func BenchmarkE6BwTree(b *testing.B) {
	for _, mix := range []struct {
		name string
		mix  harness.Mix
	}{{"ReadHeavy", harness.ReadHeavy}, {"UpdateHeavy", harness.UpdateHeavy}} {
		for _, variant := range []struct {
			name string
			mode Mode
			smo  SMOMode
		}{
			{"cas", Volatile, SMOSingleCAS},
			{"mwcas", Volatile, SMOPMwCAS},
			{"pmwcas", Persistent, SMOPMwCAS},
		} {
			b.Run(variant.name+"/"+mix.name, func(b *testing.B) {
				s := indexBenchStore(b, variant.mode)
				newHandle := openIndex(b, s, "bwtree", IndexOptions{BwTree: BwTreeOptions{SMO: variant.smo}})
				runIndexBench(b, newHandle, mix.mix,
					func() uint64 { return s.Device().Stats().Flushes })
			})
		}
	}
}

// BenchmarkE7Recovery — recovery time versus pool size and in-flight ops.
func BenchmarkE7Recovery(b *testing.B) {
	for _, cell := range []struct {
		pool, inflight int
	}{{1024, 0}, {1024, 256}, {1024, 1024}, {4096, 1024}, {16384, 4096}} {
		b.Run(fmt.Sprintf("pool%d-inflight%d", cell.pool, cell.inflight), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				r, err := harness.RunRecovery(harness.RecoveryBench{
					PoolSize: cell.pool, InFlight: cell.inflight,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !r.CorrectOK {
					b.Fatal("recovery left torn state")
				}
				total += float64(r.Elapsed.Microseconds())
			}
			b.ReportMetric(total/float64(b.N), "recovery-µs")
		})
	}
}

// BenchmarkE8ReverseScan — reverse range scans: doubly-linked vs the
// baseline's validate-and-repair prev traversal.
func BenchmarkE8ReverseScan(b *testing.B) {
	const scanLen = 100
	b.Run("cas-fixup", func(b *testing.B) {
		s := indexBenchStore(b, Volatile)
		cl, err := s.CASSkipList()
		if err != nil {
			b.Fatal(err)
		}
		h := cl.NewHandle(1)
		for i := 0; i < benchKeySpace/2; i++ {
			h.Insert(uint64(i*2+1), uint64(i))
		}
		kg := harness.NewKeyGen(harness.Uniform, benchKeySpace-scanLen, 9)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			from := kg.Next()
			h.ScanReverse(from, from+scanLen, func(SkipListEntry) bool { return true })
		}
	})
	b.Run("pmwcas-doubly-linked", func(b *testing.B) {
		s := indexBenchStore(b, Persistent)
		l, err := s.SkipList()
		if err != nil {
			b.Fatal(err)
		}
		h := l.NewHandle(1)
		for i := 0; i < benchKeySpace/2; i++ {
			h.Insert(uint64(i*2+1), uint64(i))
		}
		kg := harness.NewKeyGen(harness.Uniform, benchKeySpace-scanLen, 9)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			from := kg.Next()
			h.ScanReverse(from, from+scanLen, func(SkipListEntry) bool { return true })
		}
	})
}

// BenchmarkBlobKV — the extension layer: string-keyed puts/gets with
// out-of-line 128-byte values (not a paper experiment; included so the
// composition cost is visible next to the raw index numbers).
func BenchmarkBlobKV(b *testing.B) {
	val := make([]byte, 128)
	for i := range val {
		val[i] = byte(i)
	}
	b.Run("Put", func(b *testing.B) {
		s := indexBenchStore(b, Persistent)
		kv, err := s.BlobKV()
		if err != nil {
			b.Fatal(err)
		}
		h := kv.NewHandle(1)
		key := make([]byte, 7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := i % 4096 // bounded key set: puts become replacements
			key[0], key[1] = byte(n), byte(n>>8)
			if err := h.Put(key, val); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Get", func(b *testing.B) {
		s := indexBenchStore(b, Persistent)
		kv, err := s.BlobKV()
		if err != nil {
			b.Fatal(err)
		}
		h := kv.NewHandle(1)
		key := make([]byte, 7)
		for n := 0; n < 4096; n++ {
			key[0], key[1] = byte(n), byte(n>>8)
			if err := h.Put(key, val); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := i % 4096
			key[0], key[1] = byte(n), byte(n>>8)
			if _, err := h.Get(key); err != nil {
				b.Fatal(err)
			}
		}
	})
}

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

// BenchmarkE9Space — descriptor pool footprint (Appendix B shape). Not a
// timing benchmark: it reports bytes per descriptor for each word count.
func BenchmarkE9Space(b *testing.B) {
	for _, words := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("%dwords", words), func(b *testing.B) {
			s, err := Create(Config{
				Size: 16 << 20, Descriptors: 64, WordsPerDescriptor: words,
				BwTreeMappingSlots: 256,
			})
			if err != nil {
				b.Fatal(err)
			}
			h := s.PMwCASHandle()
			for i := 0; i < b.N; i++ {
				d, err := h.AllocateDescriptor(0)
				if err != nil {
					b.Fatal(err)
				}
				d.AddWord(s.RootWord(0), uint64(i), uint64(i+1))
				if ok, _ := d.Execute(); !ok {
					b.Fatal("Execute failed")
				}
			}
			per, total := poolSpace(words)
			b.ReportMetric(float64(per), "bytes/desc")
			b.ReportMetric(float64(total), "pool-bytes-16k")
		})
	}
}

// poolSpace mirrors core's descriptor sizing for reporting.
func poolSpace(words int) (per, total16k uint64) {
	per = uint64(64 + words*32)
	per = (per + 63) / 64 * 64
	return per, per * 16384
}
