package pmwcas

import (
	"bytes"
	"testing"

	"pmwcas/internal/core"
	"pmwcas/internal/keycodec"
	"pmwcas/internal/wire"
)

// These tests pin the bare-sentinel contract on the fast paths: every
// rejection a point op can produce must be returned as the sentinel
// value itself, not wrapped through fmt.Errorf. Wrapping still passes
// errors.Is, so errors.Is-based tests would not catch a re-wrap — these
// compare with == on purpose. The hotpath analyzer (DESIGN.md §6.3)
// rejects the Errorf call site statically; this is the runtime half of
// the same guarantee.

func TestWireSentinelsAreBare(t *testing.T) {
	if _, err := wire.DecodeRequest([]byte{0xee}); err != wire.ErrUnknownOp {
		t.Fatalf("unknown op: got %v, want bare wire.ErrUnknownOp", err)
	}
	if _, err := wire.DecodeRequest(nil); err != wire.ErrTruncated {
		t.Fatalf("empty body: got %v, want bare wire.ErrTruncated", err)
	}
	body := wire.AppendRequest(nil, &wire.Request{Op: wire.OpGet, Key: []byte("k")})
	if _, err := wire.DecodeRequest(append(body, 0)); err != wire.ErrTrailingBytes {
		t.Fatalf("trailing byte: got %v, want bare wire.ErrTrailingBytes", err)
	}
	if _, err := wire.DecodeResponse([]byte{0xee}); err != wire.ErrUnknownStatus {
		t.Fatalf("unknown status: got %v, want bare wire.ErrUnknownStatus", err)
	}
}

func TestKeycodecSentinelsAreBare(t *testing.T) {
	if _, err := keycodec.Encode(bytes.Repeat([]byte{'x'}, keycodec.MaxLen+1)); err != keycodec.ErrTooLong {
		t.Fatalf("oversize key: got %v, want bare keycodec.ErrTooLong", err)
	}
}

func TestDescriptorSentinelsAreBare(t *testing.T) {
	store, err := Create(testConfig())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer store.Close()
	h := store.PMwCASHandle()
	a := store.RootWord(0)

	d, err := h.AllocateDescriptor(0)
	if err != nil {
		t.Fatalf("AllocateDescriptor: %v", err)
	}
	if err := d.AddWord(a, 0, 1); err != nil {
		t.Fatalf("AddWord: %v", err)
	}
	if err := d.AddWord(a, 0, 2); err != core.ErrDuplicateAddress {
		t.Fatalf("duplicate address: got %v, want bare core.ErrDuplicateAddress", err)
	}
	if err := d.AddWord(a+1, 0, 1); err != core.ErrBadAddress {
		t.Fatalf("misaligned address: got %v, want bare core.ErrBadAddress", err)
	}
	d.Discard()

	d2, err := h.AllocateDescriptor(0)
	if err != nil {
		t.Fatalf("AllocateDescriptor: %v", err)
	}
	if _, err := d2.Execute(); err != core.ErrEmptyDescriptor {
		t.Fatalf("empty execute: got %v, want bare core.ErrEmptyDescriptor", err)
	}
}

// TestIndexSentinelsAreOneValue pins the shared contract: whichever index
// (or BlobKV) reports an absent or present key, it is the same bare value,
// under every name the package exports for it.
func TestIndexSentinelsAreOneValue(t *testing.T) {
	for name, err := range map[string]error{
		"ErrSkipListNotFound": ErrSkipListNotFound, "ErrBwTreeNotFound": ErrBwTreeNotFound,
		"ErrHashNotFound": ErrHashNotFound, "ErrBlobNotFound": ErrBlobNotFound,
	} {
		if err != ErrNotFound {
			t.Errorf("%s is not ErrNotFound", name)
		}
	}
	for name, err := range map[string]error{
		"ErrSkipListKeyExists": ErrSkipListKeyExists, "ErrBwTreeKeyExists": ErrBwTreeKeyExists,
		"ErrHashKeyExists": ErrHashKeyExists,
	} {
		if err != ErrKeyExists {
			t.Errorf("%s is not ErrKeyExists", name)
		}
	}
	if ErrHashUnordered != ErrUnordered {
		t.Error("ErrHashUnordered is not ErrUnordered")
	}
}

// TestOpenIndexContract drives every index by name through the one
// handle contract, on one shard (the index's own handle) and on three
// (a handle routing by ShardForKey): the sentinels come back bare, keys
// land on their home shard, and only a single-shard ordered index scans.
func TestOpenIndexContract(t *testing.T) {
	for _, name := range []string{"skiplist", "bwtree", "hash"} {
		for _, shards := range []int{1, 3} {
			st, err := Create(testShardConfig(shards))
			if err != nil {
				t.Fatal(err)
			}
			mint, err := st.OpenIndex(name, IndexOptions{})
			if err != nil {
				t.Fatalf("%s/%d: OpenIndex: %v", name, shards, err)
			}
			h := mint(1)
			const n = 200
			for k := uint64(1); k <= n; k++ {
				if err := h.Insert(k, k*10); err != nil {
					t.Fatalf("%s/%d: Insert(%d): %v", name, shards, k, err)
				}
			}
			if err := h.Insert(7, 1); err != ErrKeyExists {
				t.Fatalf("%s/%d: duplicate Insert: got %v, want bare ErrKeyExists", name, shards, err)
			}
			if err := h.Update(7, 77); err != nil {
				t.Fatalf("%s/%d: Update: %v", name, shards, err)
			}
			if v, err := h.Get(7); err != nil || v != 77 {
				t.Fatalf("%s/%d: Get(7) = %d, %v", name, shards, v, err)
			}
			if err := h.Delete(7); err != nil {
				t.Fatalf("%s/%d: Delete: %v", name, shards, err)
			}
			_, getErr := h.Get(7)
			for _, err := range []error{getErr, h.Update(7, 1), h.Delete(7)} {
				if err != ErrNotFound {
					t.Fatalf("%s/%d: op on a deleted key: got %v, want bare ErrNotFound", name, shards, err)
				}
			}
			// Every key lives on its home shard and nowhere else.
			for si := 0; si < shards; si++ {
				m, err := st.Shard(si).OpenIndex(name, IndexOptions{})
				if err != nil {
					t.Fatal(err)
				}
				sh := m(2)
				for k := uint64(1); k <= n; k++ {
					_, err := sh.Get(k)
					if want := k != 7 && st.ShardForKey(k) == si; (err == nil) != want {
						t.Fatalf("%s/%d: key %d on shard %d: err %v, home shard %d", name, shards, k, si, err, st.ShardForKey(k))
					}
				}
			}
			seen := 0
			err = h.Scan(1, n, func(IndexEntry) bool { seen++; return true })
			if name != "hash" && shards == 1 {
				if err != nil || seen != n-1 {
					t.Fatalf("%s/%d: Scan saw %d entries, %v; want %d", name, shards, seen, err, n-1)
				}
			} else if err != ErrUnordered {
				t.Fatalf("%s/%d: Scan: got %v, want bare ErrUnordered", name, shards, err)
			}
		}
	}
	st, err := Create(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.OpenIndex("btree", IndexOptions{}); err == nil {
		t.Fatal("OpenIndex accepted an unknown index name")
	}
}
