package main

import (
	"flag"
	"path/filepath"
	"testing"

	"pmwcas"
)

// TestGeometryFlagsReopenImage: the size, descriptor and shard flags
// alone describe a store's layout, so a checkpoint of a two-shard store
// reopens through them; with no flags they describe a default
// pmwcas-server store.
func TestGeometryFlagsReopenImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.img")
	st, err := pmwcas.Create(pmwcas.Config{Size: 2 << 20, Shards: 2, Descriptors: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < st.ShardCount(); i++ {
		tr, err := st.Shard(i).BwTree(pmwcas.BwTreeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.NewHandle().Insert(uint64(i+1), 7); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(path); err != nil {
		t.Fatal(err)
	}

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfgOf := geometryFlags(fs)
	if err := fs.Parse([]string{"-size", "2097152", "-descriptors", "64", "-shards", "2"}); err != nil {
		t.Fatal(err)
	}
	re, err := pmwcas.OpenFile(path, cfgOf())
	if err != nil {
		t.Fatalf("OpenFile through the geometry flags: %v", err)
	}
	ds, err := re.CheckInvariants(pmwcas.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.BwTree) != 2 {
		t.Fatalf("reopened image holds %d Bw-tree keys, want 2", len(ds.BwTree))
	}

	// pmwcas-server's defaults: -size 256 (MiB), -descriptors 4096, -shards 1.
	if c := geometryFlags(flag.NewFlagSet("defaults", flag.ContinueOnError))(); c.Size != 256<<20 ||
		c.Descriptors != 4096 || c.Shards != 1 {
		t.Fatalf("default geometry Size %d, Descriptors %d, Shards %d; want pmwcas-server's 256 MiB, 4096, 1",
			c.Size, c.Descriptors, c.Shards)
	}
}
