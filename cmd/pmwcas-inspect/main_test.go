package main

import (
	"bytes"
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
// shape table per shard that holds them, and opening the trees for it
// leaves the durable image as it was.
func TestReportShowsBwTreeShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.img")
	st, err := pmwcas.Create(pmwcas.Config{Size: 2 << 20, Shards: 2, Descriptors: 64})
	if err != nil {
		t.Fatal(err)
	}
	mint, err := st.OpenIndex("bwtree", pmwcas.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := mint(1)
	for k := uint64(1); k <= 50; k++ {
		if err := h.Insert(k, k); err != nil {
			t.Fatal(err)
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
	if err := report(&out, re, false); err != nil {
		t.Fatal(err)
	}
	if err := re.Device().WriteSnapshot(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("the report changed the durable image")
	}
	for _, want := range []string{`(?m)^bw-tree +50 *$`, `bw-tree shape, shard 0`, `bw-tree shape, shard 1`} {
		if !regexp.MustCompile(want).Match(out.Bytes()) {
			t.Errorf("report lacks %s:\n%s", want, out.String())
		}
	}
}
