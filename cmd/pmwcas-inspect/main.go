// Command pmwcas-inspect opens a store snapshot (written by
// Store.Checkpoint), recovers it, and reports what the image holds: its
// shard count, allocator use, and the entries of every structure on every
// shard — skip list, Bw-tree, hash table, queue and blob values — as the
// store's own audit (Store.CheckInvariants) extracts them. Useful when
// debugging a crash image or just to see the durable state a power
// failure would leave behind.
//
// An image describes itself: the store reads its geometry from the
// layout record in the image, so no flag restates it. Images laid out
// with custom size classes do not open here.
//
// Usage:
//
//	pmwcas-inspect -image store.img [-keys]
//	pmwcas-inspect stats -image store.img
//	pmwcas-inspect trace [-addr host:port] [-timeout d] [-raw]
//
// The stats subcommand prints the merged StoreStats snapshot in the
// server's STATS wire format ("name value" lines) without needing a
// running server — point it at a checkpoint image. The trace subcommand
// dials a live server, fetches the PMwCAS descriptor lifecycle ring
// (METRICS with the "trace" view), and prints each descriptor's
// lifecycle — alloc → execute → help* → decide → retire → finalize —
// with per-step latencies and helper lane IDs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"pmwcas"
	"pmwcas/internal/harness"
	"pmwcas/internal/metrics"
	"pmwcas/internal/server"
	"pmwcas/internal/wire"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "stats":
			runStats(os.Args[2:])
			return
		case "trace":
			runTrace(os.Args[2:])
			return
		}
	}
	runInspect(os.Args[1:])
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pmwcas-inspect: "+format+"\n", args...)
	os.Exit(1)
}

// runStats opens an image offline and prints the merged StoreStats in
// the exact format the STATS wire command uses.
func runStats(args []string) {
	fs := flag.NewFlagSet("pmwcas-inspect stats", flag.ExitOnError)
	image := fs.String("image", "", "snapshot file written by Store.Checkpoint (required)")
	fs.Parse(args)
	fmt.Print(server.FormatStats(openImage(fs, *image).Stats()))
}

// runTrace dials a server and reconstructs descriptor lifecycles from
// the trace ring.
func runTrace(args []string) {
	fs := flag.NewFlagSet("pmwcas-inspect trace", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7171", "server address")
	timeout := fs.Duration("timeout", 5*time.Second, "dial and per-request timeout")
	raw := fs.Bool("raw", false, "print the raw JSON dump instead of grouped lifecycles")
	fs.Parse(args)

	c, err := wire.DialTimeout(*addr, *timeout)
	if err != nil {
		fatalf("dial %s: %v", *addr, err)
	}
	defer c.Close()
	payload, err := c.Trace()
	if err != nil {
		fatalf("trace: %v", err)
	}
	if *raw {
		os.Stdout.Write(payload)
		fmt.Println()
		return
	}
	evs, err := metrics.ParseTrace(payload)
	if err != nil {
		fatalf("parse trace: %v", err)
	}
	printLifecycles(evs)
}

// printLifecycles groups trace events by descriptor and prints each
// lifecycle chronologically with step-relative latencies.
func printLifecycles(evs []metrics.TraceEvent) {
	if len(evs) == 0 {
		fmt.Println("trace ring empty (server started with -metrics=false or -trace=false, or no PMwCAS activity yet)")
		return
	}
	// Group by descriptor offset, remembering first-seen order.
	groups := make(map[uint64][]metrics.TraceEvent)
	var order []uint64
	for _, ev := range evs {
		if _, ok := groups[ev.Desc]; !ok {
			order = append(order, ev.Desc)
		}
		groups[ev.Desc] = append(groups[ev.Desc], ev)
	}
	sort.Slice(order, func(a, b int) bool {
		return groups[order[a]][0].Seq < groups[order[b]][0].Seq
	})
	fmt.Printf("%d events, %d descriptors\n", len(evs), len(order))
	for _, desc := range order {
		g := groups[desc]
		fmt.Printf("desc 0x%x (%d events)\n", desc, len(g))
		base := g[0].T
		for _, ev := range g {
			fmt.Printf("  +%-10s %-8s lane=%-3d aux=%d (seq %d)\n",
				time.Duration(ev.T-base), ev.Kind, ev.Actor, ev.Aux, ev.Seq)
		}
	}
}

// openImage opens and recovers the snapshot at path, or exits: with the
// flag set's usage when no path was given, with the error otherwise.
func openImage(fs *flag.FlagSet, path string) *pmwcas.Store {
	if path == "" {
		fs.Usage()
		os.Exit(2)
	}
	store, err := pmwcas.OpenFile(path, pmwcas.Config{})
	if err != nil {
		fatalf("%v", err)
	}
	return store
}

// runInspect reports a whole image (the default when no subcommand is
// given).
func runInspect(args []string) {
	fs := flag.NewFlagSet("pmwcas-inspect", flag.ExitOnError)
	image := fs.String("image", "", "snapshot file written by Store.Checkpoint (required)")
	showKeys := fs.Bool("keys", false, "dump every entry (small stores only)")
	fs.Parse(args)
	store := openImage(fs, *image)
	fmt.Printf("image: %s\n", *image)
	if err := report(os.Stdout, store, *showKeys); err != nil {
		fatalf("%v", err)
	}
}

// report prints what a freshly opened store holds, from its audit. It
// opens a shard's Bw-tree, for the tree's shape, only when the audit
// found Bw-tree keys whose home is that shard, so describing an image
// never creates a structure in it.
func report(w io.Writer, store *pmwcas.Store, showKeys bool) error {
	ds, err := store.CheckInvariants(pmwcas.CheckOptions{})
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	st := store.Stats()
	tbl := harness.NewTable("image", "metric", "value")
	tbl.Add("shards", st.Shards)
	tbl.Add("blocks in use", fmt.Sprintf("%d of %d", st.AllocBlocks, st.AllocCapBlocks))
	tbl.Add("bytes in use", fmt.Sprintf("%d of %d", st.AllocBytes, st.AllocCapBytes))
	tbl.Print(w)

	tbl = harness.NewTable("contents (every shard)", "structure", "entries")
	for _, row := range []struct {
		name string
		n    int
	}{
		{"skip list", len(ds.SkipList)}, {"bw-tree", len(ds.BwTree)}, {"hash table", len(ds.Hash)},
		{"hash buckets", ds.HashCheck.Buckets}, {"queue", len(ds.Queue)}, {"blob values", len(ds.Blobs)},
	} {
		if row.n > 0 {
			tbl.Add(row.name, row.n)
		}
	}
	tbl.Print(w)

	home := make([]bool, store.ShardCount())
	for _, e := range ds.BwTree {
		home[store.ShardForKey(e.Key)] = true
	}
	for i, ok := range home {
		if !ok {
			continue
		}
		tree, err := store.Shard(i).BwTree(pmwcas.BwTreeOptions{})
		if err != nil {
			return err
		}
		ts := tree.Stats(tree.NewHandle())
		tbl = harness.NewTable(fmt.Sprintf("bw-tree shape, shard %d", i), "metric", "value")
		tbl.Add("height", ts.Height)
		tbl.Add("leaves", ts.Leaves)
		tbl.Add("inner pages", ts.Inners)
		tbl.Add("max delta chain", ts.MaxChain)
		tbl.Add("live delta records", ts.ChainLinks)
		tbl.Add("LPIDs used", ts.UsedLPIDs)
		tbl.Print(w)
	}

	if !showKeys {
		return nil
	}
	fmt.Fprintln(w)
	for _, idx := range []struct {
		name    string
		entries []pmwcas.IndexEntry
	}{{"skiplist", ds.SkipList}, {"bwtree", ds.BwTree}, {"hash", ds.Hash}} {
		for _, e := range idx.entries {
			fmt.Fprintf(w, "%s %d -> %d\n", idx.name, e.Key, e.Value)
		}
	}
	for _, v := range ds.Queue {
		fmt.Fprintf(w, "queue %d\n", v)
	}
	blobs := make([]string, 0, len(ds.Blobs))
	for k := range ds.Blobs {
		blobs = append(blobs, k)
	}
	sort.Strings(blobs)
	for _, k := range blobs {
		fmt.Fprintf(w, "blob %q (%d bytes)\n", k, len(ds.Blobs[k]))
	}
	return nil
}
