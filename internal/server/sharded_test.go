package server

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"pmwcas"
	"pmwcas/internal/wire"
)

// startShardedServer is startServer over a four-shard store.
func startShardedServer(t *testing.T, index Index, maxConns int) (*Server, *pmwcas.Store, string) {
	t.Helper()
	srv, store, addr, _ := startServerOn(t, pmwcas.Config{
		Size: 16 << 20, Shards: 4, Descriptors: 512,
		BwTreeMappingSlots: 1 << 12, HashDirSlots: 1 << 8,
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
			// (batch-pull must not overrun), and sub-ranges respect bounds.
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

// TestSuccessorKey pins the batch-pull resume key: strictly greater,
// nothing encodable in between.
func TestSuccessorKey(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"", "\x00", true},
		{"abc", "abc\x00", true},
		{"abcdefg", "abcdefh", true},                // max length: increment
		{"abcdef\xff", "abcdeg", true},              // carry drops the 0xff
		{"a\xff\xff\xff\xff\xff\xff", "b", true},    // long carry
		{"\xff\xff\xff\xff\xff\xff\xff", "", false}, // keyspace maximum
		{"abc\xff", "abc\xff\x00", true},            // short keys just extend
	}
	for _, tc := range cases {
		got, ok := successorKey([]byte(tc.in))
		if ok != tc.ok || (ok && string(got) != tc.want) {
			t.Errorf("successorKey(%q) = %q, %v; want %q, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// TestScanReadsOnlyEmittedRecords pins a limit-k SCAN on one shard to k
// record reads. The blob layer copies an entry's record before the scan's
// callback sees it, so a scan that checked its limit on the entry after
// the k-th read one record it never emitted. The reference is a scan of
// the range of keys 0 to k-1, which holds exactly k keys: it reads their
// k records, then the next node's key to find it past the end. A limit-k
// scan from key 0 must load fewer words; one more record read costs it
// the node's value and link words and the record's words on top.
func TestScanReadsOnlyEmittedRecords(t *testing.T) {
	store, err := pmwcas.Create(pmwcas.Config{Size: 16 << 20, Descriptors: 256})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := newBackends(store, IndexSkipList, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := bs[0]
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	for i := 0; i < 100; i++ {
		if err := b.Put(key(i), []byte(value(i))); err != nil {
			t.Fatal(err)
		}
	}
	// scan returns the words one scan from key 0 loads and the entries it
	// emits, after running every pending finalizer.
	scan := func(end []byte, limit int) (uint64, int) {
		for i := 0; i < 3; i++ {
			store.Epochs().Advance()
			store.Epochs().Collect()
		}
		before := store.Device().Stats().Loads
		n := 0
		if err := b.Scan(key(0), end, limit, func(k, v []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return store.Device().Stats().Loads - before, n
	}
	for _, k := range []int{1, 5, scanBatch, 50} {
		bounded, n := scan(key(k-1), 1000)
		limited, m := scan(nil, k)
		if n != k || m != k {
			t.Fatalf("k=%d: the scans emitted %d and %d entries", k, n, m)
		}
		if limited >= bounded {
			t.Errorf("limit-%d scan loaded %d words, a scan of exactly %d keys %d: it read a record past its limit",
				k, limited, k, bounded)
		}
	}
}
