package main

import (
	"sort"

	"pmwcas/internal/metrics"
)

// windowed holds the end-to-end view of a contiguous range of timed windows:
// each field summarizes one per-window number across the range.
type windowed struct {
	opsPerS                   stat
	p50, p99                  [nKinds]stat
	samples                   [nKinds]int
	flushes, fences, deviceOp stat // per op
	ops                       uint64
}

// windows computes the per-window numbers of windows lo..hi (1-based,
// inclusive) and summarizes them.
func (m *measurement) windows(lo, hi int) windowed {
	var (
		rate, flushes, fences, devops []float64
		p50, p99                      [nKinds][]float64
		out                           windowed
	)
	for w := lo; w <= hi; w++ {
		a, b := m.bounds[w-1], m.bounds[w]
		var ops uint64
		for _, c := range m.r.clients {
			ops += c.done[w]
		}
		out.ops += ops
		n := float64(ops)
		rate = append(rate, ratio(n, b.at.Sub(a.at).Seconds()))
		flushes = append(flushes, ratio(float64(b.dev.Flushes-a.dev.Flushes), n))
		fences = append(fences, ratio(float64(b.dev.Fences-a.dev.Fences), n))
		devops = append(devops, ratio(float64(deviceOps(b)-deviceOps(a)), n))
		for k := 0; k < nKinds; k++ {
			var lat []uint32
			for _, c := range m.r.clients {
				lat = append(lat, c.lat[k][c.mark[w][k]:c.mark[w+1][k]]...)
			}
			if len(lat) == 0 {
				continue
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			out.samples[k] += len(lat)
			p50[k] = append(p50[k], percentile(lat, 0.50)/1e3)
			p99[k] = append(p99[k], percentile(lat, 0.99)/1e3)
		}
	}
	out.opsPerS = summarize(rate, "1/s")
	out.flushes = summarize(flushes, "count")
	out.fences = summarize(fences, "count")
	out.deviceOp = summarize(devops, "count")
	for k := 0; k < nKinds; k++ {
		out.p50[k] = summarize(p50[k], "us")
		out.p99[k] = summarize(p99[k], "us")
	}
	return out
}

func deviceOps(b boundary) uint64 {
	return b.dev.Loads + b.dev.Stores + b.dev.CASes + b.dev.Flushes + b.dev.Fences
}

// layerCounts derives the count-based per-layer metrics from the counter
// deltas across windows lo..hi: work each layer did per completed op.
func (m *measurement) layerCounts(lo, hi int, ops uint64, out map[string]float64) {
	a, b := m.bounds[lo-1], m.bounds[hi]
	n := float64(ops)
	per := func(name string, delta uint64) { out[name] = ratio(float64(delta), n) }
	counter := func(name string) uint64 { return b.counters[name] - a.counters[name] }
	hist := func(name string) metrics.HistSnapshot { return histDelta(b.hists[name], a.hists[name]) }
	p50us := func(name string) float64 { h := hist(name); return float64(h.Quantile(0.5)) / 1e3 }

	per("nvram.loads_per_op", b.dev.Loads-a.dev.Loads)
	per("nvram.stores_per_op", b.dev.Stores-a.dev.Stores)
	per("nvram.cas_per_op", b.dev.CASes-a.dev.CASes)

	ok, failed := b.pool.Succeeded-a.pool.Succeeded, b.pool.Failed-a.pool.Failed
	per("core.pmwcas_per_op", ok+failed)
	out["core.pmwcas_success_ratio"] = ratio(float64(ok), float64(ok+failed))
	per("core.helps_per_op", b.pool.Helps-a.pool.Helps)
	per("core.install_retries_per_op", counter("core_pmwcas_install_retries"))
	out["core.descriptors_free_min"] = float64(m.descFreeMin)

	out["epoch.advances_per_kop"] = 1e3 * ratio(float64(b.epoch.Advances-a.epoch.Advances), n)
	per("epoch.deferred_per_op", b.epoch.Deferred-a.epoch.Deferred)
	out["epoch.pending_max"] = float64(m.epochPendingMax)
	out["epoch.reclaim_lag_p50_us"] = p50us("epoch_reclaim_lag_ns")

	per("alloc.blocks_allocated_per_op", counter("alloc_blocks_allocated"))
	out["alloc.out_of_memory"] = float64(counter("alloc_out_of_memory"))

	out["skiplist.find_steps_mean"] = histMean(hist("skiplist_find_steps"))
	per("skiplist.find_restarts_per_op", counter("skiplist_find_restarts"))
	out["bwtree.descend_depth_mean"] = histMean(hist("bwtree_descend_depth"))
	out["bwtree.consolidations_per_kop"] = 1e3 * ratio(float64(hist("bwtree_consolidate_ns").Count), n)
	out["hashtable.locate_depth_mean"] = histMean(hist("hashtable_locate_depth"))
	out["hashtable.splits"] = float64(counter("hash_splits"))
	out["hashtable.doublings"] = float64(counter("hash_doublings"))
	out["hashtable.reclaims"] = float64(counter("hash_reclaims"))

	out["server.cmd_get_p50_us"] = p50us("server_get_ns")
	out["server.cmd_put_p50_us"] = p50us("server_put_ns")
	out["server.cmd_scan_p50_us"] = p50us("server_scan_ns")
	out["server.pipeline_depth_mean"] = histMean(hist("server_pipeline_depth"))
	out["server.busy_rejects"] = float64(counter("server_busy_rejects"))

	per("go.heap_allocs_per_op", b.mem.Mallocs-a.mem.Mallocs)
	per("go.heap_bytes_per_op", b.mem.TotalAlloc-a.mem.TotalAlloc)
	out["go.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	out["go.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
}

// spanMedians reduces the traced windows' spans to one median duration per
// span name, plus the root span's self time: its duration minus the part its
// children cover.
func spanMedians(clients []*client, out map[string]float64) {
	byName := map[string][]uint32{}
	children := map[[2]uint64]int64{} // (client, req) -> time covered by child spans
	var roots []span
	for _, c := range clients {
		for _, s := range c.spans {
			byName[s.Name] = append(byName[s.Name], uint32(s.End-s.Start))
			if s.Parent == "" {
				roots = append(roots, s)
			} else {
				children[[2]uint64{uint64(s.Client), s.Req}] += s.End - s.Start
			}
		}
	}
	for _, s := range roots {
		self := s.End - s.Start - children[[2]uint64{uint64(s.Client), s.Req}]
		if self < 0 {
			self = 0 // a batch's shared socket.write can exceed one request's own span
		}
		byName["self"] = append(byName["self"], uint32(self))
	}
	med := func(name string) float64 {
		d := byName[name]
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return percentile(d, 0.5) / 1e3
	}
	out["client.span_encode_us"] = med("wire.encode")
	out["client.span_write_us"] = med("socket.write")
	out["client.span_wait_us"] = med("socket.wait")
	out["client.span_call_us"] = med("store.call")
	out["client.span_self_us"] = med("self")
}
