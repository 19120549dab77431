package main

import (
	"fmt"
	"os"
	"time"

	"pmwcas"
	"pmwcas/internal/harness"
)

// Ablations: sweeps over the design knobs DESIGN.md calls out, run with
// -ablations. Unlike E1-E9 these have no direct analogue figure in the
// paper; they quantify the cost model behind the design choices.

func ablations(threads int, sc scale) {
	a1FlushLatency(threads, sc)
	a2PoolSize(threads, sc)
	a3Eviction(threads, sc)
	a4ConsolidationThreshold(threads, sc)
}

// A1: how the persistence overhead scales with NVRAM write-back latency.
// The paper's 1-3%/4-8% overheads were measured with CPU-bound indexes
// where flush latency hides behind other work; this sweep shows overhead
// as a pure function of the CLWB cost.
func a1FlushLatency(threads int, sc scale) {
	tbl := harness.NewTable("A1 (ablation): persistence overhead vs flush latency (4-word MwCAS)",
		"flush latency", "mwcas ops/s", "pmwcas ops/s", "overhead")
	for _, lat := range []time.Duration{0, 50 * time.Nanosecond, 200 * time.Nanosecond, 1000 * time.Nanosecond} {
		m := micro(harness.VariantMwCAS, threads, sc.microOps/4, 100000, 4, lat)
		p := micro(harness.VariantPMwCAS, threads, sc.microOps/4, 100000, 4, lat)
		tbl.Add(lat, harness.Throughput(m.OpsPerSec), harness.Throughput(p.OpsPerSec),
			fmt.Sprintf("%.1f%%", harness.OverheadPct(m.OpsPerSec, p.OpsPerSec)))
	}
	tbl.Print(os.Stdout)
}

// A2: descriptor pool sizing (§5.1 says a small multiple of the thread
// count suffices; this shows what happens as the pool shrinks toward
// that bound and reclamation pressure rises).
func a2PoolSize(threads int, sc scale) {
	tbl := harness.NewTable("A2 (ablation): descriptor pool size (4 threads, 4-word ops)",
		"descriptors", "ops/s", "success")
	for _, descs := range []int{2 * threads, 4 * threads, 16 * threads, 256 * threads} {
		r, err := harness.RunMicro(harness.MicroConfig{
			Variant: harness.VariantPMwCAS, Threads: threads, OpsPer: sc.microOps / 4,
			ArrayWords: 100000, WordsPerOp: 4, Descriptors: descs,
			YieldEvery: yieldEvery,
		})
		if err != nil {
			fail(err)
		}
		tbl.Add(descs, harness.Throughput(r.OpsPerSec), r.SuccessRate)
	}
	tbl.Print(os.Stdout)
}

// A3: opportunistic cache eviction (paper footnote 1): extra write-backs
// the protocol did not ask for. Persistence-correct either way; the
// question is the throughput cost of a noisy cache.
func a3Eviction(threads int, sc scale) {
	tbl := harness.NewTable("A3 (ablation): opportunistic eviction (pmwcas skip list, update-heavy)",
		"evict every", "ops/s", "flushes/op")
	w := harness.Workload{
		Threads: threads, OpsPer: sc.indexOps / 2, KeySpace: sc.keySpace / 4,
		Dist: harness.Uniform, Mix: harness.UpdateHeavy, Preload: sc.preload / 4,
	}
	for _, evict := range []int{0, 16, 4} {
		s, err := pmwcas.Create(pmwcas.Config{
			Size: 256 << 20, Mode: pmwcas.Persistent, Descriptors: 4096,
			EvictEvery: evict, YieldEvery: yieldEvery,
		})
		if err != nil {
			fail(err)
		}
		r, err := harness.Run(open(s, "pmwcas", "skiplist", pmwcas.IndexOptions{}), w,
			s.Device().Stats)
		if err != nil {
			fail(err)
		}
		label := "off"
		if evict > 0 {
			label = fmt.Sprintf("%d stores", evict)
		}
		tbl.Add(label, harness.Throughput(r.OpsPerSec), r.FlushesPer)
	}
	tbl.Print(os.Stdout)
}

// A4: Bw-tree consolidation threshold — the classic delta-chain
// trade-off: long chains make writes cheap and reads expensive.
func a4ConsolidationThreshold(threads int, sc scale) {
	tbl := harness.NewTable("A4 (ablation): Bw-tree consolidation threshold (pmwcas, 50/50 mix)",
		"consolidate after", "ops/s", "flushes/op")
	w := harness.Workload{
		Threads: threads, OpsPer: sc.indexOps / 2, KeySpace: sc.keySpace / 4,
		Dist: harness.Uniform, Mix: harness.UpdateHeavy, Preload: sc.preload / 4,
	}
	for _, consol := range []int{2, 8, 32} {
		s, err := pmwcas.Create(pmwcas.Config{
			Size: 256 << 20, Mode: pmwcas.Persistent, Descriptors: 4096,
			YieldEvery: yieldEvery,
		})
		if err != nil {
			fail(err)
		}
		f := open(s, "pmwcas", "bwtree", pmwcas.IndexOptions{BwTree: pmwcas.BwTreeOptions{ConsolidateAfter: consol}})
		r, err := harness.Run(f, w, s.Device().Stats)
		if err != nil {
			fail(err)
		}
		tbl.Add(consol, harness.Throughput(r.OpsPerSec), r.FlushesPer)
	}
	tbl.Print(os.Stdout)
}
