// Command experiments regenerates every table of EXPERIMENTS.md but
// E11's historical one: the paper's evaluation (E1-E9) and the extension
// tables E10 (index matrix) and E12 (shard-count scaling), printing
// paper-style tables. Absolute numbers reflect the simulated
// NVRAM substrate; the shapes — who wins, by what factor, where
// contention and persistence costs bite — are the reproduction targets.
// Nothing gates on these tables; the gate is `go run ./bench`.
//
// Usage:
//
//	experiments [-quick] [-only eN] [-threads n] [-flushns n]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"pmwcas"
	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/harness"
	"pmwcas/internal/htm"
	"pmwcas/internal/index"
	"pmwcas/internal/nvram"
	"pmwcas/internal/skiplist"
)

type scale struct {
	microOps int
	indexOps int
	keySpace uint64
	preload  int
	scanOps  int
	recPools []int
	shards   []int
}

type experiment struct {
	name, title string
	fn          func(threads int, sc scale, flush time.Duration)
}

// experiments is the one list of what this command can run: main walks
// it in order, -only selects from it, and the usage text is printed
// from it.
var experiments = []experiment{
	{"e1", "MwCAS microbenchmark, low contention", e1},
	{"e2", "MwCAS microbenchmark, high contention", e2},
	{"e3", "cost vs words per descriptor", e3},
	{"e4", "persistence anatomy (flushes and helps per op)", e4},
	{"e5", "skip list variants", e5},
	{"e6", "Bw-tree variants", e6},
	{"e7", "recovery time", e7},
	{"e8", "reverse scans", e8},
	{"e9", "descriptor space", e9},
	{"e10", "index matrix: 3 indexes x 4 workloads x 2 distributions", e10},
	{"e12", "shard-count scaling of the hash index", e12},
}

// selectExperiments returns the experiments -only names: all of them
// when it is empty, none when it names nothing in the table.
func selectExperiments(only string) []experiment {
	if only == "" {
		return experiments
	}
	for i, e := range experiments {
		if e.name == only {
			return experiments[i : i+1]
		}
	}
	return nil
}

// experimentList renders the table for the usage text and the
// unknown-name error.
func experimentList() string {
	var b strings.Builder
	for _, e := range experiments {
		fmt.Fprintf(&b, "  %-4s %s\n", e.name, e.title)
	}
	return b.String()
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is main with its exit status returned: 2 for a command line it
// cannot act on, 1 when a cell's correctness check failed.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "reduced parameters (seconds instead of minutes)")
	threads := fs.Int("threads", 4, "worker goroutines")
	flushNS := fs.Int("flushns", 100, "simulated CLWB latency in ns (0 = free flushes)")
	yield := fs.Int("yield", 4, "interleave logical threads every N device accesses (0 = off)")
	runAblations := fs.Bool("ablations", false, "also run the design-knob ablation sweeps (A1-A4)")
	repsFlag := fs.Int("reps", 3, "repetitions per index-workload cell (median reported)")
	only := fs.String("only", "", "run a single experiment, by `name`")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: experiments [flags]")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "experiments:\n%s", experimentList())
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	selected := selectExperiments(*only)
	if selected == nil {
		fmt.Fprintf(stderr, "experiments: no experiment %q; the experiments are:\n%s", *only, experimentList())
		return 2
	}
	yieldEvery = *yield
	reps = *repsFlag
	if *quick {
		reps = 1
	}

	sc := scale{
		microOps: 200000, indexOps: 50000, keySpace: 1 << 20, preload: 1 << 19,
		scanOps: 20000, recPools: []int{1024, 4096, 16384}, shards: []int{1, 2, 4, 8},
	}
	if *quick {
		sc = scale{
			microOps: 20000, indexOps: 5000, keySpace: 1 << 14, preload: 1 << 13,
			scanOps: 2000, recPools: []int{1024, 4096}, shards: []int{1, 4},
		}
	}
	flush := time.Duration(*flushNS) * time.Nanosecond

	for _, e := range selected {
		e.fn(*threads, sc, flush)
	}
	if *runAblations {
		ablations(*threads, sc)
	}
	if badRuns > 0 {
		fmt.Fprintf(stderr, "experiments: %d run(s) produced incorrect results\n", badRuns)
		return 1
	}
	return 0
}

// badRuns counts experiment cells whose correctness check failed (e.g. a
// torn recovery); a nonzero count fails the whole command.
var badRuns int

// yieldEvery interleaves logical threads on few-core hosts (see -yield).
var yieldEvery int

// reps is the repetition count for index workload cells; the median
// throughput is reported (shared-host timing noise dwarfs real deltas on
// single runs).
var reps int

// runMedian runs the workload reps times on the same (preloaded) store
// and returns the run with median throughput.
func runMedian(f harness.Factory, w harness.Workload, sample func() nvram.Stats) (harness.Result, error) {
	n := reps
	if n < 1 {
		n = 1
	}
	results := make([]harness.Result, 0, n)
	for i := 0; i < n; i++ {
		ww := w
		if i > 0 {
			ww.Preload = 0 // already loaded
		}
		r, err := harness.Run(f, ww, sample)
		if err != nil {
			return harness.Result{}, err
		}
		results = append(results, r)
	}
	sort.Slice(results, func(a, b int) bool { return results[a].OpsPerSec < results[b].OpsPerSec })
	return results[len(results)/2], nil
}

func micro(v harness.MicroVariant, threads, ops, array, words int, flush time.Duration) harness.MicroResult {
	r, err := harness.RunMicro(harness.MicroConfig{
		Variant: v, Threads: threads, OpsPer: ops,
		ArrayWords: array, WordsPerOp: words,
		FlushLatency: flush,
		HTM:          htm.Config{},
		YieldEvery:   yieldEvery,
	})
	if err != nil {
		fail(err)
	}
	return r
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// E1/E2: MwCAS microbenchmark under low and high contention.
func e1(threads int, sc scale, flush time.Duration) {
	microContention("E1: MwCAS microbenchmark — LOW contention (100k-word array, 4-word ops)", 100000, threads, sc, flush)
}

func e2(threads int, sc scale, flush time.Duration) {
	microContention("E2: MwCAS microbenchmark — HIGH contention (8-word array, 4-word ops)", 8, threads, sc, flush)
}

func microContention(title string, array, threads int, sc scale, flush time.Duration) {
	tbl := harness.NewTable(title,
		"variant", "ops/s", "success", "helps/op", "flushes/op", "htm fallbacks")
	for _, v := range []harness.MicroVariant{harness.VariantMwCAS, harness.VariantPMwCAS, harness.VariantHTM} {
		r := micro(v, threads, sc.microOps, array, 4, flush)
		fb := "-"
		if v == harness.VariantHTM {
			fb = fmt.Sprint(r.HTMStats.Fallbacks)
		}
		tbl.Add(string(v), harness.Throughput(r.OpsPerSec), r.SuccessRate, r.HelpsPer, r.FlushesPer, fb)
	}
	tbl.Print(os.Stdout)
}

// E3: cost vs words per descriptor.
func e3(threads int, sc scale, flush time.Duration) {
	tbl := harness.NewTable("E3: effect of word count per PMwCAS (low contention)",
		"words", "mwcas ops/s", "pmwcas ops/s", "pmwcas flushes/op", "pmwcas overhead")
	for _, w := range []int{1, 2, 4, 8, 16} {
		m := micro(harness.VariantMwCAS, threads, sc.microOps/2, 100000, w, flush)
		p := micro(harness.VariantPMwCAS, threads, sc.microOps/2, 100000, w, flush)
		tbl.Add(w, harness.Throughput(m.OpsPerSec), harness.Throughput(p.OpsPerSec),
			p.FlushesPer, fmt.Sprintf("%.1f%%", harness.OverheadPct(m.OpsPerSec, p.OpsPerSec)))
	}
	tbl.Print(os.Stdout)
}

// E4: persistence cost anatomy (flushes and helps per op).
func e4(threads int, sc scale, flush time.Duration) {
	tbl := harness.NewTable("E4: persistence anatomy (4-word PMwCAS)",
		"contention", "flushes/op", "helps/op", "success")
	for _, cell := range []struct {
		label string
		array int
	}{{"low (100k words)", 100000}, {"medium (1k)", 1024}, {"high (8)", 8}} {
		r := micro(harness.VariantPMwCAS, threads, sc.microOps/2, cell.array, 4, flush)
		tbl.Add(cell.label, r.FlushesPer, r.HelpsPer, r.SuccessRate)
	}
	tbl.Print(os.Stdout)
}

// newStore builds one store per cell so cells never share a heap. The
// total device and descriptor budget is the same whatever the shard
// count: only how it is partitioned varies.
func newStore(mode pmwcas.Mode, flush time.Duration, shards int) *pmwcas.Store {
	runtime.GC() // release the previous variant's device before allocating
	s, err := pmwcas.Create(pmwcas.Config{
		Size: 256 << 20, Mode: mode, Shards: shards,
		Descriptors:  max(4096/shards, 256),
		FlushLatency: flush, YieldEvery: yieldEvery,
	})
	if err != nil {
		fail(err)
	}
	return s
}

// casList builds the volatile single-word-CAS baseline skip list (E5,
// E8) on a volatile device and allocator of its own, with room for a
// node per key of the full-scale key space.
func casList() (*skiplist.CASList, *nvram.Device) {
	runtime.GC() // release the previous variant's device before allocating
	spec := []alloc.Class{
		{BlockSize: 64, Count: 1 << 20},
		{BlockSize: 128, Count: 1 << 19},
		{BlockSize: 256, Count: 1 << 18},
		{BlockSize: 1024, Count: 1 << 10},
	}
	meta := alloc.MetaSize(spec, 4)
	opts := []nvram.Option{nvram.WithVolatile()}
	if yieldEvery > 0 {
		opts = append(opts, nvram.WithYield(yieldEvery))
	}
	dev := nvram.New(meta+nvram.LineBytes, opts...)
	a, err := alloc.New(dev, nvram.NewLayout(dev).Carve(meta), spec, 4)
	if err != nil {
		fail(err)
	}
	l, err := skiplist.NewCAS(dev, a, nil)
	if err != nil {
		fail(err)
	}
	return l, dev
}

// open is Store.OpenIndex as a labelled harness factory.
func open(s *pmwcas.Store, label, index string, opt pmwcas.IndexOptions) harness.Factory {
	mint, err := s.OpenIndex(index, opt)
	if err != nil {
		fail(err)
	}
	return harness.Factory{Label: label, New: mint}
}

// E5: skip list variants across mixes.
func e5(threads int, sc scale, flush time.Duration) {
	for _, mix := range []struct {
		label string
		mix   harness.Mix
	}{{"read-heavy 90/10", harness.ReadHeavy}, {"update-heavy 50/50", harness.UpdateHeavy}} {
		w := harness.Workload{
			Threads: threads, OpsPer: sc.indexOps, KeySpace: sc.keySpace,
			Dist: harness.Uniform, Mix: mix.mix, Preload: sc.preload,
		}
		tbl := harness.NewTable("E5: skip list — "+mix.label,
			"variant", "ops/s", "flushes/op", "overhead vs cas")
		var base float64

		cl, dev := casList()
		cas := harness.Factory{Label: "cas (volatile)", New: func(seed int64) harness.IndexOps { return cl.NewHandle(seed) }}
		r, err := runMedian(cas, w, dev.Stats)
		if err != nil {
			fail(err)
		}
		base = r.OpsPerSec
		tbl.Add(r.Variant, harness.Throughput(r.OpsPerSec), r.FlushesPer, "-")

		for _, variant := range []struct {
			label string
			mode  pmwcas.Mode
		}{{"mwcas (volatile)", pmwcas.Volatile}, {"pmwcas (persistent)", pmwcas.Persistent}} {
			s := newStore(variant.mode, flush, 1)
			r, err := runMedian(open(s, variant.label, "skiplist", pmwcas.IndexOptions{}), w,
				s.Device().Stats)
			if err != nil {
				fail(err)
			}
			tbl.Add(r.Variant, harness.Throughput(r.OpsPerSec), r.FlushesPer,
				fmt.Sprintf("%.1f%%", harness.OverheadPct(base, r.OpsPerSec)))
		}
		tbl.Print(os.Stdout)
	}
}

// E6: Bw-tree variants across mixes.
func e6(threads int, sc scale, flush time.Duration) {
	for _, mix := range []struct {
		label string
		mix   harness.Mix
	}{{"read-heavy 90/10", harness.ReadHeavy}, {"update-heavy 50/50", harness.UpdateHeavy}} {
		w := harness.Workload{
			Threads: threads, OpsPer: sc.indexOps, KeySpace: sc.keySpace,
			Dist: harness.Uniform, Mix: mix.mix, Preload: sc.preload,
		}
		tbl := harness.NewTable("E6: Bw-tree — "+mix.label,
			"variant", "ops/s", "flushes/op", "device ops/op", "overhead vs cas")
		var base float64
		for i, variant := range []struct {
			label string
			mode  pmwcas.Mode
			smo   pmwcas.SMOMode
		}{
			{"cas (volatile)", pmwcas.Volatile, pmwcas.SMOSingleCAS},
			{"mwcas (volatile)", pmwcas.Volatile, pmwcas.SMOPMwCAS},
			{"pmwcas (persistent)", pmwcas.Persistent, pmwcas.SMOPMwCAS},
		} {
			s := newStore(variant.mode, flush, 1)
			f := open(s, variant.label, "bwtree", pmwcas.IndexOptions{BwTree: pmwcas.BwTreeOptions{SMO: variant.smo}})
			r, err := runMedian(f, w, s.Device().Stats)
			if err != nil {
				fail(err)
			}
			overhead := "-"
			if i == 0 {
				base = r.OpsPerSec
			} else {
				overhead = fmt.Sprintf("%.1f%%", harness.OverheadPct(base, r.OpsPerSec))
			}
			tbl.Add(r.Variant, harness.Throughput(r.OpsPerSec), r.FlushesPer,
				fmt.Sprintf("%.1f", r.DeviceOpsPer), overhead)
		}
		tbl.Print(os.Stdout)
	}
}

type matrixShape struct {
	name    string
	mix     harness.Mix
	preload bool
}

// matrixShapes are the workload rows of E10. The scan row is last so
// that E12, on the hash index, which has no key order to scan, takes
// the rows before it.
var matrixShapes = []matrixShape{
	{"load", harness.Mix{Inserts: 100}, false},
	{"read", harness.ReadHeavy, true},
	{"mixed", harness.UpdateHeavy, true},
	{"scan", harness.ScanHeavy, true},
}

// matrixRows runs one index on a store of the given shard count through
// shapes × {uniform, zipf}, one fresh persistent store per cell, and adds
// a row per cell under label. OpenIndex routes keys by Store.ShardForKey,
// the placement the server's sharded backend uses, without the network.
func matrixRows(tbl *harness.Table, label, index string, shards, threads int, sc scale, flush time.Duration, shapes []matrixShape) {
	for _, shape := range shapes {
		for _, d := range []harness.Distribution{harness.Uniform, harness.Zipf} {
			if index == "hash" && shape.mix.Scans > 0 {
				// Reported, not measured: a hash table faking a range
				// scan would be benchmarking a lie.
				tbl.Add(label, shape.name, d, "n/a (unordered)", "-")
				continue
			}
			w := harness.Workload{
				Threads: threads, OpsPer: sc.indexOps, KeySpace: sc.keySpace,
				Dist: d, Mix: shape.mix,
			}
			run := runMedian
			if shape.preload {
				w.Preload = sc.preload
			} else {
				run = harness.Run // a load cannot repeat on the store it filled
			}
			s := newStore(pmwcas.Persistent, flush, shards)
			r, err := run(open(s, label, index, pmwcas.IndexOptions{}), w,
				s.Device().Stats)
			if err != nil {
				fail(err)
			}
			tbl.Add(label, shape.name, d, harness.Throughput(r.OpsPerSec), r.FlushesPer)
		}
	}
}

// E10: every persistent index through four workload shapes under two key
// distributions on identical stores — which index for which workload.
func e10(threads int, sc scale, flush time.Duration) {
	tbl := harness.NewTable(
		fmt.Sprintf("E10: index matrix — persistent stores, %d threads, %d keys", threads, sc.keySpace),
		"index", "workload", "dist", "ops/s", "flushes/op")
	for _, ix := range []string{"skiplist", "bwtree", "hash"} {
		matrixRows(tbl, ix, ix, 1, threads, sc, flush, matrixShapes)
	}
	tbl.Print(os.Stdout)
}

// E12: the shard-per-core layout — the hash index across shard counts,
// so the only variable is how the store is partitioned.
func e12(threads int, sc scale, flush time.Duration) {
	tbl := harness.NewTable(
		fmt.Sprintf("E12: shard matrix — persistent hash index, %d threads, %d keys", threads, sc.keySpace),
		"shards", "workload", "dist", "ops/s", "flushes/op")
	for _, n := range sc.shards {
		matrixRows(tbl, fmt.Sprint(n), "hash", n, threads, sc, flush, matrixShapes[:len(matrixShapes)-1])
	}
	tbl.Print(os.Stdout)
}

// E7: recovery time.
func e7(_ int, sc scale, _ time.Duration) {
	tbl := harness.NewTable("E7: recovery time vs descriptor pool and in-flight ops",
		"pool", "in-flight", "recovery", "all-or-nothing")
	for _, pool := range sc.recPools {
		for _, inflight := range []int{0, pool / 4, pool} {
			r, err := harness.RunRecovery(harness.RecoveryBench{PoolSize: pool, InFlight: inflight})
			if err != nil {
				fail(err)
			}
			verdict := "OK"
			if !r.CorrectOK {
				verdict = "TORN"
				badRuns++
			}
			tbl.Add(pool, inflight, r.Elapsed, verdict)
		}
	}
	tbl.Print(os.Stdout)
}

// E8: reverse scans, doubly-linked vs baseline fix-up traversal.
func e8(_ int, sc scale, flush time.Duration) {
	const scanLen = 100
	tbl := harness.NewTable("E8: reverse range scans (100-key ranges)",
		"variant", "scans/s")

	// Both lists are driven through the same contract; the reverse scan
	// is the optional capability only the doubly-linked designs offer.
	type reverseHandle interface {
		pmwcas.IndexHandle
		index.ReverseScanner
	}
	run := func(label string, h reverseHandle) {
		stride := sc.keySpace / uint64(sc.preload)
		if stride == 0 {
			stride = 1
		}
		for i := 0; i < sc.preload; i++ {
			if err := h.Insert((uint64(i)*stride)%sc.keySpace+1, uint64(i)); err != nil {
				fail(err)
			}
		}
		kg := harness.NewKeyGen(harness.Uniform, sc.keySpace-scanLen, 7)
		start := time.Now()
		for i := 0; i < sc.scanOps; i++ {
			from := kg.Next()
			if err := h.ScanReverse(from, from+scanLen, func(pmwcas.IndexEntry) bool { return true }); err != nil {
				fail(err)
			}
		}
		tbl.Add(label, harness.Throughput(float64(sc.scanOps)/time.Since(start).Seconds()))
	}
	cl, _ := casList()
	run("cas + prev fix-up", cl.NewHandle(1))
	l, err := newStore(pmwcas.Persistent, flush, 1).SkipList()
	if err != nil {
		fail(err)
	}
	run("pmwcas doubly-linked", l.NewHandle(1))
	tbl.Print(os.Stdout)
}

// E9: descriptor space analysis (Appendix B shape).
func e9(int, scale, time.Duration) {
	tbl := harness.NewTable("E9: descriptor pool space (bytes)",
		"words/desc", "bytes/desc", "pool=4xthreads(48)", "pool=16384")
	for _, w := range []int{4, 8, 16} {
		dev := nvram.New(1 << 20)
		l := nvram.NewLayout(dev)
		pool, err := core.NewPool(core.Config{
			Device: dev, Region: l.Carve(core.PoolSize(64, w)),
			DescriptorCount: 64, WordsPerDescriptor: w,
		})
		if err != nil {
			fail(err)
		}
		per, _ := pool.SpaceAnalysis()
		tbl.Add(w, per, per*4*48, per*16384)
	}
	tbl.Print(os.Stdout)
}
