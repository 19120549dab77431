package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"regexp"
	"testing"

	"pmwcas"
)

// TestReportCoversEveryShard: the report of a two-shard checkpoint whose
// hash tables hold 100 keys each counts all 200, opens with no geometry
// at all, and shows no structure the image does not hold — describing
// the image creates neither a skip list nor a Bw-tree in it.
func TestReportCoversEveryShard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.img")
	st, err := pmwcas.Create(pmwcas.Config{Size: 2 << 20, Shards: 2, Descriptors: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < st.ShardCount(); i++ {
		ht, err := st.Shard(i).HashTable(pmwcas.HashTableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h := ht.NewHandle()
		for k := uint64(1); k <= 100; k++ {
			if err := h.Insert(k, k*10); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Checkpoint(path); err != nil {
		t.Fatal(err)
	}

	re, err := pmwcas.OpenFile(path, pmwcas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after, out bytes.Buffer
	if err := re.Device().WriteSnapshot(&before); err != nil {
		t.Fatal(err)
	}
	if err := report(&out, re, true); err != nil {
		t.Fatal(err)
	}
	if err := re.Device().WriteSnapshot(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("the report changed the durable image")
	}
	for _, want := range []string{`(?m)^shards +2 *$`, `(?m)^hash table +200 *$`, `(?m)^hash buckets +\d+ *$`, `(?m)^hash 100 -> 1000$`} {
		if !regexp.MustCompile(want).Match(out.Bytes()) {
			t.Errorf("report lacks %s:\n%s", want, out.String())
		}
	}
	for _, unwanted := range []string{`skip ?list`, `bw-?tree`, `blob`, `queue`} {
		if regexp.MustCompile(unwanted).Match(out.Bytes()) {
			t.Errorf("report shows %s, which the image does not hold:\n%s", unwanted, out.String())
		}
	}

}

// TestReportShowsBwTreeShape: an image whose Bw-trees hold keys gets one
// shape table per shard, and opening the trees for it leaves the durable
// image as it was. That holds whether the trees map words or carry the
// blob layer, whose keys the audit reports as blob values, not Bw-tree
// entries (the image every pmwcas-server -index bwtree writes). Each
// tree has split its leaves under an inner root, and its SMOs rewrote
// that root rather than post deltas to it, so the report counts no inner
// delta record.
func TestReportShowsBwTreeShape(t *testing.T) {
	for _, tc := range []struct {
		name, count string
		fill        func(t *testing.T, st *pmwcas.Store)
	}{
		{"words", `(?m)^bw-tree +500 *$`, func(t *testing.T, st *pmwcas.Store) {
			mint, err := st.OpenIndex("bwtree", pmwcas.IndexOptions{})
			if err != nil {
				t.Fatal(err)
			}
			h := mint(1)
			for k := uint64(1); k <= 500; k++ {
				if err := h.Insert(k, k); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"blob", `(?m)^blob values +500 *$`, func(t *testing.T, st *pmwcas.Store) {
			var hs []*pmwcas.BlobKVHandle
			for i := 0; i < st.ShardCount(); i++ {
				kv, err := st.Shard(i).OpenBlobKV("bwtree", pmwcas.IndexOptions{})
				if err != nil {
					t.Fatal(err)
				}
				hs = append(hs, kv.NewHandle(1))
			}
			for k := 1; k <= 500; k++ {
				key := fmt.Sprintf("k%03d", k)
				if err := hs[st.ShardForKey(pmwcas.MustEncodeKey(key))].Put([]byte(key), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "store.img")
			st, err := pmwcas.Create(pmwcas.Config{Size: 2 << 20, Shards: 2, Descriptors: 64})
			if err != nil {
				t.Fatal(err)
			}
			tc.fill(t, st)
			if err := st.Checkpoint(path); err != nil {
				t.Fatal(err)
			}
			re, err := pmwcas.OpenFile(path, pmwcas.Config{})
			if err != nil {
				t.Fatal(err)
			}
			var before, after, out bytes.Buffer
			if err := re.Device().WriteSnapshot(&before); err != nil {
				t.Fatal(err)
			}
			if err := report(&out, re, false); err != nil {
				t.Fatal(err)
			}
			if err := re.Device().WriteSnapshot(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Error("the report changed the durable image")
			}
			for _, want := range []string{tc.count, `bw-tree shape, shard 0`, `bw-tree shape, shard 1`} {
				if !regexp.MustCompile(want).Match(out.Bytes()) {
					t.Errorf("report lacks %s:\n%s", want, out.String())
				}
			}
			for _, want := range []string{`(?m)^inner pages +1 *$`, `(?m)^inner delta records +0 *$`} {
				if n := len(regexp.MustCompile(want).FindAll(out.Bytes(), -1)); n != 2 {
					t.Errorf("%d shape tables show %s, want both:\n%s", n, want, out.String())
				}
			}
		})
	}
}
