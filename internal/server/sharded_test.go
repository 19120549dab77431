package server

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"pmwcas"
	"pmwcas/internal/nvram"
	"pmwcas/internal/wire"
)

// startShardedServer is startServer over a four-shard store.
func startShardedServer(t *testing.T, index Index, maxConns int) (*Server, *pmwcas.Store, string) {
	t.Helper()
	srv, store, addr, _ := startServerOn(t, pmwcas.Config{
		Size: 16 << 20, Shards: 4, Descriptors: 512,
	}, index, maxConns)
	return srv, store, addr
}

// value is key i's value: longer than a word, so it takes the blob
// layer's out-of-line record on every index.
func value(i int) string { return fmt.Sprintf("value %d, %s", i, strings.Repeat("*", i%64)) }

// TestShardedServerEndToEnd drives the ordered indexes over a
// multi-shard store through the wire protocol, with values longer than a
// word: point operations route
// to each key's home shard, and SCAN returns the union of all shards in
// global key order — the shard-merge must be invisible to clients.
func TestShardedServerEndToEnd(t *testing.T) {
	for _, index := range []Index{IndexSkipList, IndexBwTree} {
		t.Run(string(index), func(t *testing.T) {
			_, store, addr := startShardedServer(t, index, 4)
			cl := dial(t, addr)

			const n = 120
			var keys []string
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("k%04d", i*7)
				keys = append(keys, k)
				if err := cl.Put([]byte(k), []byte(value(i))); err != nil {
					t.Fatalf("Put(%s): %v", k, err)
				}
			}
			// The keys really did spread: stats must show 4 shards, and the
			// per-shard memory use must not be concentrated in one shard.
			if st := store.Stats(); st.Shards != 4 {
				t.Fatalf("Stats().Shards = %d, want 4", st.Shards)
			}
			for i := 0; i < n; i++ {
				got, err := cl.Get([]byte(keys[i]))
				if err != nil || string(got) != value(i) {
					t.Fatalf("Get(%s) = %q, %v", keys[i], got, err)
				}
			}

			// Full-range scan: every key, globally ordered, despite living on
			// four different shards.
			entries, err := cl.Scan([]byte("k"), nil, n+10)
			if err != nil {
				t.Fatalf("Scan: %v", err)
			}
			if len(entries) != n {
				t.Fatalf("Scan returned %d entries, want %d", len(entries), n)
			}
			sorted := append([]string(nil), keys...)
			sort.Strings(sorted)
			for i, e := range entries {
				if string(e.Key) != sorted[i] {
					t.Fatalf("Scan[%d] = %q, want %q (merge broke global order)", i, e.Key, sorted[i])
				}
				if i > 0 && bytes.Compare(entries[i-1].Key, e.Key) >= 0 {
					t.Fatalf("Scan out of order at %d: %q then %q", i, entries[i-1].Key, e.Key)
				}
			}

			// Bounded scan: limit smaller than one shard's share still works
			// (the merge must not overrun it), and sub-ranges respect bounds.
			few, err := cl.Scan([]byte("k"), nil, 5)
			if err != nil || len(few) != 5 {
				t.Fatalf("Scan limit 5 = %d entries, %v", len(few), err)
			}
			for i, e := range few {
				if string(e.Key) != sorted[i] {
					t.Fatalf("limited Scan[%d] = %q, want %q", i, e.Key, sorted[i])
				}
			}
			mid, err := cl.Scan([]byte(sorted[40]), []byte(sorted[59]), 1000)
			if err != nil || len(mid) != 20 {
				t.Fatalf("mid-range Scan = %d entries, %v; want 20", len(mid), err)
			}

			// Deletes route like every other point op.
			for i := 0; i < n; i += 3 {
				if err := cl.Delete([]byte(keys[i])); err != nil {
					t.Fatalf("Delete(%s): %v", keys[i], err)
				}
			}
			for i := 0; i < n; i++ {
				_, err := cl.Get([]byte(keys[i]))
				if i%3 == 0 {
					if err == nil {
						t.Fatalf("Get(%s) found a deleted key", keys[i])
					}
				} else if err != nil {
					t.Fatalf("Get(%s) after deletes: %v", keys[i], err)
				}
			}

			// STATS reports the shard count on the wire.
			stats, err := cl.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(stats, "shards 4") {
				t.Fatalf("STATS does not report the shard count:\n%s", stats)
			}
		})
	}
}

// TestShardedServerHash: the hash index routes point ops (with values
// longer than a word) across shards and still rejects SCAN, and the hash structure counters flow through
// the merged STATS surface.
func TestShardedServerHash(t *testing.T) {
	_, _, addr := startShardedServer(t, IndexHash, 2)
	cl := dial(t, addr)
	const n = 300
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("h%04d", i)
		if err := cl.Put([]byte(k), []byte(value(i))); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("h%04d", i)
		if v, err := cl.Get([]byte(k)); err != nil || string(v) != value(i) {
			t.Fatalf("Get(%s) = %q, %v", k, v, err)
		}
	}
	resp, err := cl.Do(&wire.Request{Op: wire.OpScan, Key: []byte("h"), Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusBadRequest {
		t.Fatalf("SCAN on the sharded hash index: %s, want BAD_REQUEST", resp.Status)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hash_splits", "hash_doublings", "shards 4"} {
		if !strings.Contains(stats, want) {
			t.Fatalf("STATS missing %q:\n%s", want, stats)
		}
	}
}

// scanBackend returns a backend on a fresh store of the given shard count
// over idx, with the keys scanKey(0) to scanKey(n-1) put in order, key i's
// value vlen bytes long: value(i), cut or padded with '.'.
func scanBackend(t *testing.T, shards int, idx Index, n, vlen int) (*pmwcas.Store, *backend) {
	t.Helper()
	store, err := pmwcas.Create(pmwcas.Config{Size: 16 << 20, Shards: shards, Descriptors: 256})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := newBackends(store, idx, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := []byte(value(i) + strings.Repeat(".", vlen))[:vlen]
		if err := bs[0].Put(scanKey(i), v); err != nil {
			t.Fatal(err)
		}
	}
	return store, bs[0]
}

func scanKey(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }

// TestScanReadsOnlyEmittedRecords pins a SCAN to reading exactly the
// records it returns, for any shard count and limit. Two stores differ
// only in their values' lengths, 8 and 64 bytes: the same keys put in the
// same order through handles of the same seeds, so their index walks load
// the same words, and each record read loads 7 words more on the second.
// A merge that read a batch of records per shard read 64 at 2 shards and
// 128 at 4 for any limit up to 50.
func TestScanReadsOnlyEmittedRecords(t *testing.T) {
	for _, idx := range []Index{IndexSkipList, IndexBwTree} {
		for _, shards := range []int{1, 2, 4} {
			var stores [2]*pmwcas.Store
			var bs [2]*backend
			for i, vlen := range []int{8, 64} {
				stores[i], bs[i] = scanBackend(t, shards, idx, 400, vlen)
			}
			// scan returns the words one scan from the 101st key loads and
			// the entries it emits, after running every pending finalizer.
			scan := func(i, limit int) (uint64, int) {
				for si := 0; si < shards; si++ {
					for j := 0; j < 3; j++ {
						stores[i].Shard(si).Epochs().Advance()
						stores[i].Shard(si).Epochs().Collect()
					}
				}
				before := stores[i].Device().Stats().Loads
				n := 0
				if err := bs[i].Scan(scanKey(100), nil, limit, func(k, v []byte) bool { n++; return true }); err != nil {
					t.Fatal(err)
				}
				return stores[i].Device().Stats().Loads - before, n
			}
			for _, limit := range []int{1, 5, 32, 50, 300} {
				short, n := scan(0, limit)
				long, m := scan(1, limit)
				if n != limit || m != limit {
					t.Fatalf("%s, %d shards, limit %d: the scans emitted %d and %d entries", idx, shards, limit, n, m)
				}
				if d := long - short; d%7 != 0 || d/7 != uint64(limit) {
					t.Errorf("%s, %d shards, limit %d: 64-byte values loaded %d words more than 8-byte ones, %.1f records for %d entries",
						idx, shards, limit, d, float64(d)/7, limit)
				}
			}
		}
	}
}

// TestScanMergeModel checks SCAN against a sorted map on blob layers over
// the skip list and the Bw-tree at 1, 2 and 4 shards, through puts,
// overwrites and deletes of random keys and the keyspace's edges: the
// empty key and the top key, past which no key resumes a shard's walk.
func TestScanMergeModel(t *testing.T) {
	top := "\xff\xff\xff\xff\xff\xff\xff"
	for _, idx := range []Index{IndexSkipList, IndexBwTree} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/%d", idx, shards), func(t *testing.T) {
				_, b := scanBackend(t, shards, idx, 0, 0)
				rng := rand.New(rand.NewSource(int64(shards)))
				// Bytes 0x00 and 0xff and every length up to the limit put
				// keys next to their neighbours in the integer domain.
				randKey := func() string {
					k := make([]byte, rng.Intn(8))
					for i := range k {
						k[i] = []byte{0x00, 'a', 'b', 0xfe, 0xff}[rng.Intn(5)]
					}
					return string(k)
				}
				model := map[string]string{}
				check := func(from, end string, limit int) {
					t.Helper()
					var want []string
					for k := range model {
						if k >= from && (end == "" || k <= end) {
							want = append(want, k)
						}
					}
					sort.Strings(want)
					want = want[:min(len(want), limit)]
					var got []string
					err := b.Scan([]byte(from), []byte(end), limit, func(k, v []byte) bool {
						if model[string(k)] != string(v) {
							t.Errorf("Scan(%q, %q, %d): %q holds %q, want %q", from, end, limit, k, v, model[string(k)])
						}
						got = append(got, string(k))
						return true
					})
					if err != nil {
						t.Fatalf("Scan(%q, %q, %d): %v", from, end, limit, err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("Scan(%q, %q, %d) = %q, want %q", from, end, limit, got, want)
					}
				}
				for round := 0; round < 6; round++ {
					for i := 0; i < 150; i++ {
						k := randKey()
						if rng.Intn(4) == 0 {
							delete(model, k)
							if err := b.Delete([]byte(k)); err != nil && !errors.Is(err, pmwcas.ErrBlobNotFound) {
								t.Fatal(err)
							}
							continue
						}
						v := fmt.Sprintf("%x/%d", k, rng.Intn(1000))
						model[k] = v
						if err := b.Put([]byte(k), []byte(v)); err != nil {
							t.Fatal(err)
						}
					}
					// The edges are in the first rounds and gone in the rest.
					for _, k := range []string{"", top} {
						if round < 3 {
							model[k] = "edge " + k
							if err := b.Put([]byte(k), []byte(model[k])); err != nil {
								t.Fatal(err)
							}
						} else if _, ok := model[k]; ok {
							delete(model, k)
							if err := b.Delete([]byte(k)); err != nil {
								t.Fatal(err)
							}
						}
					}
					check("", "", 512)          // the server's largest limit
					check("", "", len(model)+1) // above the population
					check("", "", 1)            // the smallest key
					check(top, "", 512)         // the top key, if present
					check("b", "a", 512)        // end below from
					check("a", "b", len(model)) // a sub-range
					check("\xfe", top, 3)       // up to the top key
					check("a\xff\xff\xff\xff\xff\xff", "", 5)
					for i := 0; i < 20; i++ {
						from, end := randKey(), randKey()
						if end < from && rng.Intn(2) == 0 {
							from, end = end, from
						}
						check(from, end, 1+rng.Intn(60))
					}
				}
			})
		}
	}
}

// TestScanMergeConcurrentWriters runs two-shard SCAN(50)s while two
// writers put and delete the scanned keys, each value tagged with its
// key. A scan must yield strictly ascending keys, at most its limit of
// them, and each key's own value: a record the merge read after its
// guard let the record be recycled would hold another key's value, or a
// poisoned word under psan.
func TestScanMergeConcurrentWriters(t *testing.T) {
	for _, idx := range []Index{IndexSkipList, IndexBwTree} {
		t.Run(string(idx), func(t *testing.T) {
			store, err := pmwcas.Create(pmwcas.Config{Size: 16 << 20, Shards: 2, Descriptors: 256})
			if err != nil {
				t.Fatal(err)
			}
			bs, err := newBackends(store, idx, 3)
			if err != nil {
				t.Fatal(err)
			}
			const keys, ops, limit = 200, 3000, 50
			pad := strings.Repeat("~", 48)
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(b *backend, rng *rand.Rand) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						k := scanKey(rng.Intn(keys))
						err := b.Delete(k)
						if rng.Intn(3) > 0 {
							err = b.Put(k, fmt.Appendf(nil, "%s@%d%s", k, i, pad))
						}
						if err != nil && !errors.Is(err, pmwcas.ErrBlobNotFound) {
							t.Error(err)
							return
						}
					}
				}(bs[w], rand.New(rand.NewSource(int64(w))))
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			rng := rand.New(rand.NewSource(7))
			for scans := 0; ; scans++ {
				select {
				case <-done:
					if scans == 0 {
						t.Fatal("the writers finished before one scan")
					}
					return
				default:
				}
				var prev []byte
				n := 0
				err := bs[2].Scan(scanKey(rng.Intn(keys)), nil, limit, func(k, v []byte) bool {
					if prev != nil && bytes.Compare(prev, k) >= 0 {
						t.Fatalf("scan yielded %q after %q", k, prev)
					}
					if !bytes.HasPrefix(v, append(append([]byte(nil), k...), '@')) {
						t.Fatalf("scan yielded %q = %q, another key's value", k, v)
					}
					prev = append(prev[:0], k...)
					n++
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if n > limit {
					t.Fatalf("SCAN(%d) yielded %d entries", limit, n)
				}
			}
		})
	}
}

// TestScanAllocBudget: a two-shard SCAN(50) allocates nothing per entry.
// The merge reuses its handles' buffers; what a scan whose visitor does
// not allocate still allocates is each shard's deferred guard exit.
func TestScanAllocBudget(t *testing.T) {
	if nvram.SanitizerEnabled {
		t.Skip("psan's shadow state allocates on every device op")
	}
	_, b := scanBackend(t, 2, IndexSkipList, 400, 64)
	from := scanKey(100)
	n := 0
	visit := func(k, v []byte) bool { n++; return true }
	got := testing.AllocsPerRun(200, func() {
		if err := b.Scan(from, nil, 50, visit); err != nil {
			t.Fatal(err)
		}
	})
	if got > 2 {
		t.Fatalf("a two-shard SCAN(50) made %v allocations, budget 2", got)
	}
	if n != 201*50 {
		t.Fatalf("the scans emitted %d entries, want %d", n, 201*50)
	}
}
