// Command indexbench runs the two cross-cutting index matrices (the
// per-index experiments E5, E6 and E8 live in cmd/experiments):
//
//	indexbench -matrix [-json out.json] [-threads n] [-ops n] [-keys n] [-flushns n]
//	indexbench -shards 1,2,4,8 [-yieldevery n] [-json out.json] [-threads n] ...
//
// -matrix (E10) runs all three persistent indexes through load / read /
// scan / mixed workloads under uniform and zipfian key draws, one table.
// -shards (E12) runs the hash index across shard counts with the total
// device and descriptor budget held constant. -json additionally writes
// the results as machine-readable JSON (the formats committed as
// BENCH_indexmatrix.json and BENCH_shardmatrix.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pmwcas"
	"pmwcas/internal/harness"
)

func main() {
	threads := flag.Int("threads", 4, "worker goroutines")
	ops := flag.Int("ops", 20000, "operations per thread")
	keys := flag.Uint64("keys", 1<<16, "key space size")
	flushNS := flag.Int("flushns", 0, "simulated CLWB latency in ns")
	matrix := flag.Bool("matrix", false, "run the cross-index matrix (all indexes x workloads x distributions)")
	shardsFlag := flag.String("shards", "", "comma-separated shard counts (e.g. 1,2,4,8): run the sharded hash matrix")
	yieldEvery := flag.Int("yieldevery", 0, "with -shards: yield the processor every n device accesses (emulates fine-grained interleaving on few-core hosts)")
	jsonPath := flag.String("json", "", "also write results as JSON to this file")
	flag.Parse()

	w := harness.Workload{
		Threads:  *threads,
		OpsPer:   *ops,
		KeySpace: *keys,
		Preload:  int(*keys / 2),
	}
	flush := time.Duration(*flushNS) * time.Nanosecond

	switch {
	case *matrix:
		runMatrix(w, flush, *jsonPath)
	case *shardsFlag != "":
		counts, err := parseShards(*shardsFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "indexbench:", err)
			os.Exit(2)
		}
		runShardMatrix(w, flush, counts, *yieldEvery, *jsonPath)
	default:
		fmt.Fprintln(os.Stderr, "indexbench: pass -matrix or -shards (single-index runs: cmd/experiments -only e5|e6|e8)")
		flag.Usage()
		os.Exit(2)
	}
}

// storeFor builds one persistent store per cell so cells never share a
// heap.
func storeFor(shards, descriptors, maxHandles int, flush time.Duration, yieldEvery int) *pmwcas.Store {
	return must(pmwcas.Create(pmwcas.Config{
		Size:         256 << 20,
		Shards:       shards,
		Descriptors:  descriptors,
		MaxHandles:   maxHandles,
		FlushLatency: flush,
		YieldEvery:   yieldEvery,
	}))
}

func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, "indexbench:", err)
		os.Exit(1)
	}
	return v
}

// matrixCell is one measured (index, workload, distribution) point of the
// cross-index matrix — the JSON record format of BENCH_indexmatrix.json.
type matrixCell struct {
	Index        string  `json:"index"`
	Workload     string  `json:"workload"`
	Dist         string  `json:"dist"`
	Supported    bool    `json:"supported"`
	OpsPerSec    float64 `json:"ops_per_sec,omitempty"`
	FlushesPerOp float64 `json:"flushes_per_op,omitempty"`
}

// matrixDoc is the JSON envelope: the parameters the numbers were
// measured under travel with them.
type matrixDoc struct {
	Bench        string       `json:"bench"`
	Threads      int          `json:"threads"`
	OpsPerThread int          `json:"ops_per_thread"`
	KeySpace     uint64       `json:"key_space"`
	FlushNS      int64        `json:"flush_ns"`
	Results      []matrixCell `json:"results"`
}

// runMatrix is the cross-index evaluation: every persistent index
// through four workload shapes under two key distributions. Scan on the
// hash index is reported as unsupported rather than measured — a hash
// table faking a range scan would be benchmarking a lie.
func runMatrix(w harness.Workload, flush time.Duration, jsonPath string) {
	shapes := []struct {
		name    string
		mix     harness.Mix
		preload bool
	}{
		{"load", harness.Mix{Inserts: 100}, false},
		{"read", harness.ReadHeavy, true},
		{"scan", harness.ScanHeavy, true},
		{"mixed", harness.UpdateHeavy, true},
	}
	dists := []harness.Distribution{harness.Uniform, harness.Zipf}
	indexes := []string{"skiplist", "bwtree", "hash"}

	tbl := harness.NewTable(
		fmt.Sprintf("Index matrix — persistent stores, %d threads, %d keys", w.Threads, w.KeySpace),
		"index", "workload", "dist", "ops/s", "flushes/op")
	doc := matrixDoc{
		Bench:        "indexmatrix",
		Threads:      w.Threads,
		OpsPerThread: w.OpsPer,
		KeySpace:     w.KeySpace,
		FlushNS:      flush.Nanoseconds(),
	}
	for _, ix := range indexes {
		for _, shape := range shapes {
			for _, d := range dists {
				cell := matrixCell{Index: ix, Workload: shape.name, Dist: d.String()}
				if ix == "hash" && shape.mix.Scans > 0 {
					tbl.Add(ix, shape.name, d.String(), "n/a (unordered)", "-")
					doc.Results = append(doc.Results, cell)
					continue
				}
				cw := w
				cw.Mix = shape.mix
				cw.Dist = d
				if !shape.preload {
					cw.Preload = 0
				}
				s := storeFor(1, 4096, 256, flush, 0)
				f := harness.Factory{Label: ix, New: must(s.OpenIndex(ix, pmwcas.IndexOptions{}))}
				r := must(harness.Run(f, cw,
					func() uint64 { return s.Device().Stats().Flushes }))
				cell.Supported = true
				cell.OpsPerSec = r.OpsPerSec
				cell.FlushesPerOp = r.FlushesPer
				doc.Results = append(doc.Results, cell)
				tbl.Add(ix, shape.name, d.String(), harness.Throughput(r.OpsPerSec), r.FlushesPer)
			}
		}
	}
	tbl.Print(os.Stdout)

	writeJSON(jsonPath, doc)
}

// writeJSON writes doc to path (if set) in the committed BENCH_*.json
// format.
func writeJSON(path string, doc any) {
	if path == "" {
		return
	}
	out := must(json.MarshalIndent(doc, "", "  "))
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "indexbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

// parseShards parses the -shards list.
func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -shards entry %q (want positive integers)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// shardCell is one measured (shards, workload, distribution) point —
// the JSON record format of BENCH_shardmatrix.json.
type shardCell struct {
	Shards       int     `json:"shards"`
	Workload     string  `json:"workload"`
	Dist         string  `json:"dist"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	FlushesPerOp float64 `json:"flushes_per_op"`
}

type shardDoc struct {
	Bench        string      `json:"bench"`
	Threads      int         `json:"threads"`
	OpsPerThread int         `json:"ops_per_thread"`
	KeySpace     uint64      `json:"key_space"`
	FlushNS      int64       `json:"flush_ns"`
	YieldEvery   int         `json:"yield_every"`
	Results      []shardCell `json:"results"`
}

// runShardMatrix measures the shard-per-core engine: the hash index
// across shard counts, workload shapes, and key distributions, with the
// total device/descriptor budget held constant so the only variable is
// how the store is partitioned.
func runShardMatrix(w harness.Workload, flush time.Duration, counts []int, yieldEvery int, jsonPath string) {
	shapes := []struct {
		name    string
		mix     harness.Mix
		preload bool
	}{
		{"load", harness.Mix{Inserts: 100}, false},
		{"read", harness.ReadHeavy, true},
		{"mixed", harness.UpdateHeavy, true},
	}
	dists := []harness.Distribution{harness.Uniform, harness.Zipf}

	tbl := harness.NewTable(
		fmt.Sprintf("Shard matrix — persistent hash index, %d threads, %d keys", w.Threads, w.KeySpace),
		"shards", "workload", "dist", "ops/s", "flushes/op")
	doc := shardDoc{
		Bench:        "shardmatrix",
		Threads:      w.Threads,
		OpsPerThread: w.OpsPer,
		KeySpace:     w.KeySpace,
		FlushNS:      flush.Nanoseconds(),
		YieldEvery:   yieldEvery,
	}
	for _, n := range counts {
		for _, shape := range shapes {
			for _, d := range dists {
				cw := w
				cw.Mix = shape.mix
				cw.Dist = d
				if !shape.preload {
					cw.Preload = 0
				}
				// The same total budget whatever n: the device size and the
				// descriptor total are fixed, just partitioned differently.
				// OpenIndex routes keys by Store.ShardForKey — the placement
				// the server's sharded backend uses, without the network.
				s := storeFor(n, max(4096/n, 256), 64, flush, yieldEvery)
				f := harness.Factory{
					Label: fmt.Sprintf("hash/%dshard", n),
					New:   must(s.OpenIndex("hash", pmwcas.IndexOptions{})),
				}
				r := must(harness.Run(f, cw,
					func() uint64 { return s.Device().Stats().Flushes }))
				doc.Results = append(doc.Results, shardCell{
					Shards: n, Workload: shape.name, Dist: d.String(),
					OpsPerSec: r.OpsPerSec, FlushesPerOp: r.FlushesPer,
				})
				tbl.Add(fmt.Sprint(n), shape.name, d.String(),
					harness.Throughput(r.OpsPerSec), r.FlushesPer)
			}
		}
	}
	tbl.Print(os.Stdout)

	writeJSON(jsonPath, doc)
}
