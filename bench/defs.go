package main

import "slices"

// A metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names, units and directions (the tests hold the two together) and
// adds each end-to-end metric's regression bound.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndDefs are what a user of the store sees. Each is the median of the
// run's five timed windows, except space_amp (one reading after recovery) and
// setup_s (median of setUps set-ups).
var endToEndDefs = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"get_p50_us", "us", "lower"},
	{"put_p50_us", "us", "lower"},
	{"flushes_per_op", "count", "lower"},
	{"fences_per_op", "count", "lower"},
	{"device_ops_per_op", "count", "lower"},
	{"space_amp", "ratio", "lower"},
	{"setup_s", "s", "lower"},
}

func defs(unit, better string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{n, unit, better}
	}
	return out
}

func indexDefs(idx string, scan bool) []metricDef {
	ns := []string{idx + ".get_ns", idx + ".update_ns", idx + ".insert_ns", idx + ".delete_ns"}
	if scan {
		ns = append(ns, idx+".scan50_ns")
	}
	return append(defs("ns", "lower", ns...),
		defs("count", "lower", idx+".get_device_ops", idx+".update_flushes", idx+".insert_flushes", idx+".delete_flushes")...)
}

// perLayerDefs are single layers' numbers, layer by layer in stack order.
// Counts come from counter deltas over the untraced windows of a -trace 1
// run; times come from its traced windows and its ladder. A metric whose
// layer the workload does not use reads 0.
var perLayerDefs = slices.Concat(
	defs("count", "lower", "nvram.loads_per_op", "nvram.stores_per_op", "nvram.cas_per_op"),
	defs("ns", "lower", "nvram.load_ns", "nvram.store_ns", "nvram.cas_ns", "nvram.flush_ns"),

	defs("count", "lower", "core.pmwcas_per_op", "core.helps_per_op", "core.install_retries_per_op"),
	defs("ratio", "higher", "core.pmwcas_success_ratio"),
	defs("count", "higher", "core.descriptors_free_min"),
	defs("ns", "lower", "core.pcas_ns", "core.read_ns", "core.pmwcas4_ns"),
	defs("count", "lower", "core.pmwcas4_flushes", "core.pmwcas4_fences", "core.pmwcas4_device_ops"),

	defs("count", "lower", "epoch.advances_per_kop", "epoch.deferred_per_op", "epoch.pending_max"),
	defs("us", "lower", "epoch.reclaim_lag_p50_us"),
	defs("ns", "lower", "epoch.guard_ns"),

	defs("count", "lower", "alloc.blocks_allocated_per_op", "alloc.out_of_memory", "alloc.alloc_free_flushes"),
	defs("B", "lower", "alloc.bytes_in_use_end"),
	defs("ns", "lower", "alloc.alloc_free_ns"),

	indexDefs("skiplist", true),
	defs("count", "lower", "skiplist.find_steps_mean", "skiplist.find_restarts_per_op"),
	indexDefs("bwtree", true),
	defs("count", "lower", "bwtree.descend_depth_mean", "bwtree.consolidations_per_kop"),
	indexDefs("hashtable", false),
	defs("count", "lower", "hashtable.locate_depth_mean", "hashtable.splits", "hashtable.doublings", "hashtable.reclaims"),

	defs("ns", "lower", "keycodec.encode_ns", "keycodec.decode_ns"),

	defs("ns", "lower", "blobkv.get_ns", "blobkv.put_ns", "blobkv.insert_ns", "blobkv.delete_ns", "blobkv.scan50_ns", "blobkv.put_self_ns"),
	defs("count", "lower", "blobkv.put_flushes", "blobkv.get_device_ops"),

	defs("ms", "lower", "store.recover_ms", "store.crash_ms"),
	defs("ratio", "higher", "store.parallel_efficiency"),

	defs("ns", "lower", "wire.req_codec_ns", "wire.resp_codec_ns", "wire.scan50_resp_codec_ns"),
	defs("B", "lower", "wire.req_bytes", "wire.resp_bytes"),

	defs("us", "lower", "server.cmd_get_p50_us", "server.cmd_put_p50_us", "server.cmd_scan_p50_us",
		"server.ping_rtt_us", "server.ping_p16_us_per_op", "server.get_rtt_us", "server.put_rtt_us"),
	defs("count", "higher", "server.pipeline_depth_mean"),
	defs("count", "lower", "server.busy_rejects"),

	defs("count", "lower", "go.heap_allocs_per_op", "go.gc_cycles"),
	defs("B", "lower", "go.heap_bytes_per_op"),
	defs("ms", "lower", "go.gc_pause_ms"),

	defs("us", "lower", "client.get_p99_us", "client.put_p99_us", "client.del_p50_us", "client.del_p99_us",
		"client.scan_p50_us", "client.scan_p99_us", "client.span_encode_us", "client.span_write_us",
		"client.span_wait_us", "client.span_call_us", "client.span_self_us"),
	defs("ratio", "lower", "client.window_spread", "client.failed_share"),

	defs("us", "lower", "residual.get_us", "residual.put_us", "residual.get_load_us", "residual.put_load_us"),
	defs("ratio", "lower", "trace.overhead_share"),
)
