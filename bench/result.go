package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime/debug"
	"time"
)

const (
	timedWindows = 5
	setUps       = 3 // set-ups per timed run; setup_s is their median
	// The ladder replays this many ops per second of -seconds on each cheap
	// rung (80k at the default 20 s), so a traced run stays about as long as
	// a timed one.
	ladderOpsPerSecond = 4000
)

// result is one run's outcome: what the run prints and what it writes to
// bench/out. A timed run fills EndToEnd; a traced run fills PerLayer.
type result struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	StreamHash string `json:"stream_hash"`

	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	FirstErr  string `json:"first_error,omitempty"`

	EndToEnd map[string]stat    `json:"end_to_end,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// Samples is how many latency samples stand behind each kind's
	// percentiles, over the five windows.
	Samples map[string]int `json:"samples"`
	// Notes are the informational lines a run prints under its metrics.
	Notes []string `json:"notes,omitempty"`
}

func newResult(w *workload, seed int64, seconds int, traced bool, streams [][]op) *result {
	return &result{Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		StreamHash: fmt.Sprintf("%016x", streamHash(streams)), Samples: map[string]int{}}
}

func (res *result) notef(format string, args ...any) {
	res.Notes = append(res.Notes, fmt.Sprintf(format, args...))
}

// tally folds the clients' and the durability check's counts into the
// result's correctness fields.
func (res *result) tally(clients []*client, rec *recovery, ladderErr error) {
	var notFound, scanned uint64
	for _, c := range clients {
		for _, n := range c.done {
			res.Attempted += n
		}
		notFound += c.notFound
		scanned += c.scanned
		res.Attempted += c.lost
		res.Failed += c.failed + c.lost
		if c.firstErr != nil && res.FirstErr == "" {
			res.FirstErr = c.firstErr.Error()
		}
	}
	res.Attempted += rec.checked
	res.Failed += rec.violations
	if rec.first != nil && res.FirstErr == "" {
		res.FirstErr = rec.first.Error()
	}
	if ladderErr != nil {
		res.Failed++
		if res.FirstErr == "" {
			res.FirstErr = "ladder: " + ladderErr.Error()
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.notef("outcomes: %d NOT_FOUND on absent keys (not failures), %d entries returned by SCANs", notFound, scanned)
	res.notef("durability: %d keys read back after %d crash/recover cycles, %d violations; first recovery rolled %d forward, %d back of %d descriptors scanned",
		rec.checked, crashCycles, rec.violations, rec.stats.RolledForward, rec.stats.RolledBack, rec.stats.Scanned)
}

func (res *result) setSamples(samples [nKinds]int) {
	for k, n := range samples {
		if n > 0 {
			res.Samples[kindName[k]] = n
		}
	}
}

func lasts(clients []*client, preload []uint64) [][]uint64 {
	out := make([][]uint64, 0, len(clients)+1)
	for _, c := range clients {
		out = append(out, c.last)
	}
	return append(out, preload) // index preloader == nClients
}

// timedRun is the untraced run: set up setUps times (keeping the last),
// warm up, five timed windows, then the durability check.
func timedRun(w *workload, seed int64, seconds int) (*result, error) {
	keys := newKeyTable(2 * nKeys)
	streams := genStreams(w, seed, streamLen)
	res := newResult(w, seed, seconds, false, streams)

	var t *target
	var setup []float64
	preload := make([]uint64, nKeys)
	for i := 0; i < setUps; i++ {
		if t != nil {
			if err := t.stopServer(); err != nil {
				return nil, err
			}
			t = nil
			// Return the discarded store's memory before the next set-up is
			// timed: each then faults in fresh pages, instead of one in three
			// paying a collection mid-preload.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if t, err = setUp(w, keys, preload); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	window := time.Duration(seconds) * time.Second / timedWindows
	r := newRun(t, streams, timedWindows, timedWindows+1)
	m, err := r.measure(window/2, window)
	if err != nil {
		return nil, err
	}
	e := m.windows(1, timedWindows)
	rec, err := t.crashAndCheck(lasts(r.clients, preload))
	if err != nil {
		return nil, err
	}
	res.tally(r.clients, rec, nil)
	res.EndToEnd = map[string]stat{
		"ops_per_s":         e.opsPerS,
		"get_p50_us":        e.p50[opGet],
		"put_p50_us":        e.p50[opPut],
		"flushes_per_op":    e.flushes,
		"fences_per_op":     e.fences,
		"device_ops_per_op": e.deviceOp,
		"space_amp":         summarize([]float64{ratio(float64(rec.memBytes), float64(rec.liveBytes))}, "ratio"),
		"setup_s":           summarize(setup, "s"),
	}
	res.setSamples(e.samples)
	return res, nil
}

// tracedRun is the -trace 1 run on a fresh store with the same seed: five
// untraced windows (the counts, and the rate tracing is compared against),
// five traced windows (client-side spans for one request in spanEvery), the
// durability check, then the ladder.
func tracedRun(w *workload, seed int64, seconds int) (*result, error) {
	keys := newKeyTable(2 * nKeys)
	streams := genStreams(w, seed, streamLen)
	res := newResult(w, seed, seconds, true, streams)
	preload := make([]uint64, nKeys)
	t, err := setUp(w, keys, preload)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	window := time.Duration(seconds) * time.Second / (2 * timedWindows)
	r := newRun(t, streams, 2*timedWindows, timedWindows+1)
	m, err := r.measure(window, window)
	if err != nil {
		return nil, err
	}
	u, tr := m.windows(1, timedWindows), m.windows(timedWindows+1, 2*timedWindows)
	pl := map[string]float64{}
	m.layerCounts(1, timedWindows, u.ops, pl)
	_, inUse := t.store.MemoryInUse()
	pl["alloc.bytes_in_use_end"] = float64(inUse)
	rec, err := t.crashAndCheck(lasts(r.clients, preload))
	if err != nil {
		return nil, err
	}

	var spans []span
	requests := 0
	for _, c := range r.clients {
		spans = append(spans, c.spans...)
	}
	for _, s := range spans {
		if s.Parent == "" {
			requests++
		}
	}
	if err := writeJSON(filepath.Join(outDir, "trace-"+w.name+".json"), spans); err != nil {
		return nil, err
	}
	spanMedians(r.clients, pl)
	res.notef("trace: %d spans of %d requests written to %s/trace-%s.json", len(spans), requests, outDir, w.name)

	t = nil
	debug.FreeOSMemory() // the ladder builds its own stores
	rungs, ladderErr := runLadder(w, keys, streams[0], seconds*ladderOpsPerSecond)
	for k, v := range rungs {
		pl[k] = v
	}

	pl["client.get_p99_us"], pl["client.put_p99_us"] = u.p99[opGet].Median, u.p99[opPut].Median
	pl["client.del_p50_us"], pl["client.del_p99_us"] = u.p50[opDel].Median, u.p99[opDel].Median
	pl["client.scan_p50_us"], pl["client.scan_p99_us"] = u.p50[opScan].Median, u.p99[opScan].Median
	pl["client.window_spread"] = u.opsPerS.spread()
	pl["store.recover_ms"] = summarize(rec.recoverMs, "ms").Median
	pl["store.crash_ms"] = summarize(rec.crashMs, "ms").Median
	pl["trace.overhead_share"] = 1 - ratio(tr.opsPerS.Median, u.opsPerS.Median)

	// What one goroutine would sustain on this mix, from the in-process
	// rungs; the store reaches parallel_efficiency of nClients times that.
	rung := w.mixRungs()
	var mixNs float64
	for k, share := range w.mix {
		mixNs += float64(share) / mixBlock * pl[rung[k]]
	}
	pl["store.parallel_efficiency"] = ratio(u.opsPerS.Median, nClients*ratio(1e9, mixNs))

	// The load residual: what the end-to-end p50 (two clients, the
	// workload's depth) adds to the one-client rung that prices the same op.
	top := [nKinds]float64{opGet: pl[rung[opGet]] / 1e3, opPut: pl[rung[opPut]] / 1e3}
	if w.net {
		top = [nKinds]float64{opGet: pl["server.get_rtt_us"], opPut: pl["server.put_rtt_us"]}
	}
	pl["residual.get_load_us"] = u.p50[opGet].Median - top[opGet]
	pl["residual.put_load_us"] = u.p50[opPut].Median - top[opPut]

	res.tally(r.clients, rec, ladderErr)
	pl["client.failed_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	res.PerLayer = pl
	res.setSamples(u.samples)
	res.layerTable(w, u, top)
	return res, nil
}

// mixRungs names, per op kind, the in-process ladder rung that prices it on
// this workload's index.
func (w *workload) mixRungs() [nKinds]string {
	switch w.index {
	case "bwtree":
		return [nKinds]string{"bwtree.get_ns", "bwtree.update_ns", "bwtree.delete_ns", "bwtree.scan50_ns"}
	case "hash":
		return [nKinds]string{"hashtable.get_ns", "hashtable.update_ns", "hashtable.delete_ns", ""}
	}
	return [nKinds]string{"blobkv.get_ns", "blobkv.put_ns", "blobkv.delete_ns", "blobkv.scan50_ns"}
}

// layerTable notes ROADMAP item 1's layer table for GET and PUT: the rungs
// that price one op, bottom up, summed against the end-to-end p50 with each
// residual named.
func (res *result) layerTable(w *workload, u windowed, top [nKinds]float64) {
	pl := res.PerLayer
	rung := w.mixRungs()
	for _, k := range []int{opGet, opPut} {
		name := kindName[k]
		res.notef("layer table, %s on %s (us):", name, w.name)
		row := func(label string, us float64, what string) { res.notef("  %-26s %9.3f  %s", label, us, what) }
		store := pl[rung[k]] / 1e3
		if w.index == "skiplist" {
			idx := map[int]string{opGet: "skiplist.get_ns", opPut: "skiplist.update_ns"}[k]
			row(idx, pl[idx]/1e3, "index point op, inside the next row")
		}
		row(rung[k], store, "one in-process call, one goroutine")
		if w.net {
			row("server.ping_rtt_us", pl["server.ping_rtt_us"], "socket + connection loop + empty frame, no backend")
			row("residual."+name+"_us", pl["residual."+name+"_us"], "rtt - ping - store call: payload codec, backend dispatch")
			row("= server."+name+"_rtt_us", top[k], "one client, depth 1")
		}
		row("residual."+name+"_load_us", pl["residual."+name+"_load_us"], fmt.Sprintf("%d clients, depth %d: contention, batching, scheduling", nClients, max(1, w.depth)))
		row("= "+name+"_p50_us", u.p50[k].Median, "end to end, untraced windows")
	}
}

// driverLine is the last line of a run's standard output: the contract
// BENCHMARK.json's driver reads. Every metric of the run's kind is present.
func (res *result) driverLine() map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	if res.Traced {
		for _, d := range perLayerDefs {
			ms[d.Name] = value{res.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEndDefs {
			ms[d.Name] = value{res.EndToEnd[d.Name].Median, d.Unit}
		}
	}
	return map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": ms}
}

// print writes every metric by name and unit, then the notes.
func (res *result) print(out io.Writer) {
	fmt.Fprintf(out, "# %s seed=%d seconds=%d traced=%v stream=%s\n", res.Workload, res.Seed, res.Seconds, res.Traced, res.StreamHash)
	if res.Traced {
		for _, d := range perLayerDefs {
			fmt.Fprintf(out, "%-34s %16.4f %-6s (%s is better)\n", d.Name, res.PerLayer[d.Name], d.Unit, d.Better)
		}
	} else {
		for _, d := range endToEndDefs {
			s := res.EndToEnd[d.Name]
			fmt.Fprintf(out, "%-20s %14.4f %-6s median of %d (min %.4f max %.4f, spread %.1f%%; %s is better)\n",
				d.Name, s.Median, d.Unit, s.N, s.Min, s.Max, 100*s.spread(), d.Better)
		}
	}
	fmt.Fprintf(out, "%-20s %14.6f %-6s %d failed of %d attempted\n", "failed_share",
		ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	fmt.Fprintf(out, "latency samples: %v\n", res.Samples)
	for _, n := range res.Notes {
		fmt.Fprintln(out, n)
	}
	if res.FirstErr != "" {
		fmt.Fprintln(out, "first error:", res.FirstErr)
	}
}
