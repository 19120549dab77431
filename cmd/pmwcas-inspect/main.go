// Command pmwcas-inspect opens a store snapshot (written by
// Store.Checkpoint) read-only-ish and reports what is inside: descriptor
// pool state before and after recovery, allocator occupancy, and the
// shape and contents summary of the indexes. Useful when debugging a
// crash image or just to see the durable state a power failure would
// leave behind.
//
// The geometry flags must match the Config the snapshot was created
// with — layout is a pure function of the configuration, and the store
// refuses an image laid out with another. Their defaults are
// pmwcas-server's, so a default server checkpoint opens without them.
//
// Usage:
//
//	pmwcas-inspect -image store.img [-size bytes] [-descriptors n]
//	               [-shards n] [-keys]
//	pmwcas-inspect stats -image store.img [-shards n] [geometry flags]
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

// geometryFlags registers the store-layout flags shared by the image
// subcommands and returns a builder that assembles the Config.
func geometryFlags(fs *flag.FlagSet) func() pmwcas.Config {
	size := fs.Uint64("size", 256<<20, "device size in bytes the store was created with")
	descriptors := fs.Int("descriptors", 4096, "descriptor pool size (per shard)")
	shards := fs.Int("shards", 1, "shard count the store was created with")
	return func() pmwcas.Config {
		return pmwcas.Config{
			Size:        *size,
			Descriptors: *descriptors,
			Shards:      *shards,
		}
	}
}

// runStats opens an image offline and prints the merged StoreStats in
// the exact format the STATS wire command uses.
func runStats(args []string) {
	fs := flag.NewFlagSet("pmwcas-inspect stats", flag.ExitOnError)
	image := fs.String("image", "", "snapshot file written by Store.Checkpoint (required)")
	cfgOf := geometryFlags(fs)
	fs.Parse(args)
	if *image == "" {
		fs.Usage()
		os.Exit(2)
	}
	store, err := pmwcas.OpenFile(*image, cfgOf())
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Print(server.FormatStats(store.Stats()))
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
		fmt.Println("trace ring empty (server started with -metrics=false, or no PMwCAS activity yet)")
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

// runInspect is the original whole-image inspection (the default when
// no subcommand is given).
func runInspect(args []string) {
	fs := flag.NewFlagSet("pmwcas-inspect", flag.ExitOnError)
	image := fs.String("image", "", "snapshot file written by Store.Checkpoint (required)")
	cfgOf := geometryFlags(fs)
	showKeys := fs.Bool("keys", false, "dump index keys (small stores only)")
	fs.Parse(args)
	if *image == "" {
		fs.Usage()
		os.Exit(2)
	}

	store, err := pmwcas.OpenFile(*image, cfgOf())
	if err != nil {
		fatalf("%v", err)
	}

	// Recovery already ran inside OpenFile; report what it found and the
	// post-recovery state of each layer.
	fmt.Printf("image: %s\n", *image)

	blocks, bytes := store.MemoryInUse()
	tbl := harness.NewTable("allocator", "metric", "value")
	tbl.Add("blocks in use", blocks)
	tbl.Add("bytes in use", bytes)
	tbl.Print(os.Stdout)

	ps := store.PoolStats()
	tbl = harness.NewTable("descriptor pool (post-recovery)", "metric", "value")
	tbl.Add("succeeded (this process)", ps.Succeeded)
	tbl.Add("failed (this process)", ps.Failed)
	tbl.Add("helps", ps.Helps)
	tbl.Print(os.Stdout)

	// Skip list summary.
	if list, err := store.SkipList(); err == nil {
		h := list.NewHandle(1)
		n := 0
		var minK, maxK uint64
		h.Scan(1, pmwcas.MaxSkipListKey, func(e pmwcas.SkipListEntry) bool {
			if n == 0 {
				minK = e.Key
			}
			maxK = e.Key
			n++
			if *showKeys {
				fmt.Printf("  skiplist %d -> %d\n", e.Key, e.Value)
			}
			return true
		})
		tbl = harness.NewTable("skip list", "metric", "value")
		tbl.Add("keys", n)
		if n > 0 {
			tbl.Add("min key", minK)
			tbl.Add("max key", maxK)
		}
		tbl.Print(os.Stdout)
	}

	// Bw-tree summary.
	if tree, err := store.BwTree(pmwcas.BwTreeOptions{}); err == nil {
		h := tree.NewHandle()
		st := tree.Stats(h)
		tbl = harness.NewTable("bw-tree", "metric", "value")
		tbl.Add("height", st.Height)
		tbl.Add("leaves", st.Leaves)
		tbl.Add("inner pages", st.Inners)
		tbl.Add("keys", st.Keys)
		tbl.Add("max delta chain", st.MaxChain)
		tbl.Add("live delta records", st.ChainLinks)
		tbl.Add("LPIDs used", st.UsedLPIDs)
		tbl.Print(os.Stdout)
		if *showKeys {
			h.Scan(1, pmwcas.MaxBwTreeKey, func(e pmwcas.BwTreeEntry) bool {
				fmt.Printf("  bwtree %d -> %d\n", e.Key, e.Value)
				return true
			})
		}
	}
}
