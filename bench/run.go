package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pmwcas"
	"pmwcas/internal/metrics"
	"pmwcas/internal/wire"
)

const (
	embedSampleEvery = 16 // in-process ops are timed one in this many; TCP ops all
	spanEvery        = 64 // the traced windows record spans for one request in this many
	gaugeTick        = 100 * time.Millisecond
)

// deleted marks, in a client's last-acknowledged table, a key whose last
// acknowledged mutation by that client was a DELETE.
const deleted = ^uint64(0)

// A span is one traced interval. Spans of one request share Req; Parent is
// the Name of the enclosing span ("" for the root "op").
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Client int    `json:"client"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// client is one closed-loop load generator and everything it records.
type client struct {
	id     int
	r      *run
	stream []op
	// last is the durability check's ground truth: per key, the tag of this
	// client's last acknowledged PUT, or deleted.
	last []uint64

	done     []uint64         // ops completed, by phase
	lat      [nKinds][]uint32 // latency samples in ns, all phases, in completion order
	mark     [][nKinds]int    // mark[p][k] = len(lat[k]) when phase p began
	entered  int              // last phase whose mark is set
	failed   uint64           // completed ops whose outcome was wrong
	lost     uint64           // ops a transport error left unanswered
	notFound uint64
	scanned  uint64 // entries returned by SCAN responses only
	firstErr error
	spans    []span
}

// run drives one workload's clients through warm-up and the timed windows.
type run struct {
	t       *target
	clients []*client
	base    time.Time
	// phase is 0 during warm-up, 1..windows during the timed windows, and
	// windows+1 once clients must stop.
	phase      atomic.Int32
	windows    int
	tracedFrom int // first phase that records spans (windows+1: none)
	mayMiss    bool
}

func newRun(t *target, streams [][]op, windows, tracedFrom int) *run {
	r := &run{t: t, windows: windows, tracedFrom: tracedFrom, mayMiss: t.w.mix[opDel] > 0}
	for c := 0; c < nClients; c++ {
		cl := &client{id: c, r: r, stream: streams[c], last: make([]uint64, nKeys),
			done: make([]uint64, windows+2), mark: make([][nKinds]int, windows+2), entered: -1}
		for k, share := range t.w.mix {
			if share > 0 {
				cl.lat[k] = make([]uint32, 0, 1<<21)
			}
		}
		r.clients = append(r.clients, cl)
	}
	return r
}

func (r *run) now() int64 { return int64(time.Since(r.base)) }

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

func (c *client) record(kind uint8, ns int64) {
	if ns > int64(^uint32(0)) {
		ns = int64(^uint32(0))
	}
	c.lat[kind] = append(c.lat[kind], uint32(ns))
}

// enter notes where the latency samples of every phase up to p begin.
func (c *client) enter(p int) {
	for c.entered < p {
		c.entered++
		for k := range c.lat {
			c.mark[c.entered][k] = len(c.lat[k])
		}
	}
}

// embedLoop issues the stream against an in-process handle, one op at a time.
// A timed op's latency is the handle call alone; validating the result is the
// client's own work and shows only in the traced "op" span.
func (c *client) embedLoop(h kv) {
	r := c.r
	defer c.enter(r.windows + 1)
	for i := uint64(0); ; i++ {
		p := int(r.phase.Load())
		if p > r.windows {
			return
		}
		c.enter(p)
		o := c.stream[i%uint64(len(c.stream))]
		key := int(o.key)
		timed := i%embedSampleEvery == 0
		var t0, t1 int64
		if timed {
			t0 = r.now()
		}
		var (
			t     tag
			found bool
			n     int
			err   error
		)
		switch o.kind {
		case opGet:
			t, found, err = h.get(key)
		case opPut:
			t = makeTag(c.id, i, key)
			err = h.put(key, t)
		case opDel:
			found, err = h.del(key)
		case opScan:
			n, err = h.scan(key, scanLimit)
		}
		if timed {
			t1 = r.now()
			c.record(o.kind, t1-t0)
		}
		switch {
		case err != nil:
			c.fail(fmt.Errorf("%s %d: %w", kindName[o.kind], key, err))
		case o.kind == opPut:
			c.last[key] = t
		case o.kind == opScan:
			c.scanned += uint64(n)
		case !found && !r.mayMiss:
			c.fail(fmt.Errorf("%s %d: not found on a workload that never deletes", kindName[o.kind], key))
		case !found:
			c.notFound++
		case o.kind == opDel:
			c.last[key] = deleted
		case !tagFits(t, key):
			c.fail(fmt.Errorf("get %d: value tag %#x belongs to another key", key, t))
		}
		if timed && p >= r.tracedFrom && i%spanEvery == 0 {
			c.spans = append(c.spans,
				span{Name: "op", Req: i, Client: c.id, Start: t0, End: r.now()},
				span{Name: "store.call", Parent: "op", Req: i, Client: c.id, Start: t0, End: t1})
		}
		c.done[p]++
	}
}

// netLoop issues the stream through a wire.Client, depth requests in flight:
// Send each, Flush once, Recv each. Every request is timed on its own, from
// just before Send encodes it to its decoded response.
func (c *client) netLoop(wc *wire.Client, depth int) {
	r := c.r
	keys := r.t.keys
	val := newValue()
	type inflight struct {
		o        op
		seq      uint64
		t0, sent int64
	}
	batch := make([]inflight, depth)
	defer c.enter(r.windows + 1)
	for i := uint64(0); ; {
		p := int(r.phase.Load())
		if p > r.windows {
			return
		}
		c.enter(p)
		tracing := p >= r.tracedFrom
		for j := range batch {
			o := c.stream[i%uint64(len(c.stream))]
			setValueTag(val, makeTag(c.id, i, int(o.key)))
			req := makeRequest(keys, o, val)
			b := &batch[j]
			b.o, b.seq, b.t0 = o, i, r.now()
			if err := wc.Send(&req); err != nil {
				c.lost += uint64(j + 1)
				c.firstErr = err
				return
			}
			if tracing {
				b.sent = r.now()
			}
			i++
		}
		var f0, f1 int64
		if tracing {
			f0 = r.now()
		}
		if err := wc.Flush(); err != nil {
			c.lost += uint64(depth)
			c.firstErr = err
			return
		}
		if tracing {
			f1 = r.now()
		}
		for j := range batch {
			b := &batch[j]
			var r0 int64
			if tracing {
				r0 = r.now()
			}
			resp, err := wc.Recv()
			t1 := r.now()
			if err != nil {
				c.lost += uint64(depth - j)
				c.firstErr = err
				return
			}
			c.record(b.o.kind, t1-b.t0)
			c.check(b.o, b.seq, &resp)
			c.done[p]++
			if tracing && b.seq%spanEvery == 0 {
				s := span{Req: b.seq, Client: c.id, Parent: "op"}
				c.spans = append(c.spans,
					span{Name: "op", Req: b.seq, Client: c.id, Start: b.t0, End: t1},
					s.named("wire.encode", b.t0, b.sent),
					s.named("socket.write", f0, f1),
					s.named("socket.wait", r0, t1))
			}
		}
	}
}

// makeRequest renders one op as the request that goes on the wire; a PUT
// carries val.
func makeRequest(keys *keyTable, o op, val []byte) wire.Request {
	req := wire.Request{Key: keys.bytes[o.key]}
	switch o.kind {
	case opGet:
		req.Op = wire.OpGet
	case opPut:
		req.Op, req.Value = wire.OpPut, val
	case opDel:
		req.Op = wire.OpDelete
	case opScan:
		req.Op, req.Limit = wire.OpScan, scanLimit
	}
	return req
}

func (s span) named(name string, start, end int64) span {
	s.Name, s.Start, s.End = name, start, end
	return s
}

// check validates one response and records what it acknowledged.
func (c *client) check(o op, seq uint64, resp *wire.Response) {
	key := int(o.key)
	switch resp.Status {
	case wire.StatusOK:
	case wire.StatusNotFound:
		if o.kind == opPut || o.kind == opScan || !c.r.mayMiss {
			c.fail(fmt.Errorf("%s %d: NOT_FOUND", kindName[o.kind], key))
		} else {
			c.notFound++
		}
		return
	default:
		c.fail(fmt.Errorf("%s %d: %s %s", kindName[o.kind], key, resp.Status, resp.Msg))
		return
	}
	switch o.kind {
	case opGet:
		if len(resp.Entries) != 1 {
			c.fail(fmt.Errorf("get %d: %d entries", key, len(resp.Entries)))
			return
		}
		if t, ok := valueTag(resp.Entries[0].Value); !ok || !tagFits(t, key) {
			c.fail(fmt.Errorf("get %d: value tag %#x belongs to another key", key, t))
		}
	case opPut:
		c.last[key] = makeTag(c.id, seq, key)
	case opDel:
		c.last[key] = deleted
	case opScan:
		if len(resp.Entries) > scanLimit {
			c.fail(fmt.Errorf("scan %d: %d entries over limit %d", key, len(resp.Entries), scanLimit))
			return
		}
		prev := key - 1
		for _, e := range resp.Entries {
			var ok bool
			if prev, ok = scannedEntry(prev, e.Key, e.Value); !ok {
				c.fail(fmt.Errorf("scan %d: bad entry %q", key, e.Key))
				return
			}
		}
		c.scanned += uint64(len(resp.Entries))
	}
}

// A boundary is what the coordinator samples between phases: only counters
// that are cheap to read and do not touch the device (Store.Stats walks the
// allocator bitmaps through device loads, so it is read outside the windows).
type boundary struct {
	at       time.Time
	dev      pmwcas.DeviceStats
	pool     pmwcas.PoolStats
	epoch    pmwcas.EpochStats
	counters map[string]uint64
	hists    map[string]metrics.HistSnapshot
	mem      runtime.MemStats
}

// The registry instruments whose deltas over the windows the per-layer
// metrics read.
var (
	counterNames = []string{
		"core_pmwcas_install_retries", "alloc_blocks_allocated", "alloc_out_of_memory",
		"skiplist_find_restarts", "server_busy_rejects",
	}
	histNames = []string{
		"epoch_reclaim_lag_ns", "skiplist_find_steps", "bwtree_descend_depth", "bwtree_consolidate_ns",
		"hashtable_locate_depth", "server_get_ns", "server_put_ns", "server_scan_ns", "server_pipeline_depth",
	}
)

func (r *run) sample() boundary {
	b := boundary{
		at:       time.Now(),
		dev:      r.t.store.Device().Stats(),
		pool:     r.t.store.PoolStats(),
		counters: make(map[string]uint64, len(counterNames)+3),
		hists:    make(map[string]metrics.HistSnapshot, len(histNames)),
	}
	for i := 0; i < r.t.store.ShardCount(); i++ {
		e := r.t.store.Shard(i).Epochs().Stats()
		b.epoch.Advances += e.Advances
		b.epoch.Deferred += e.Deferred
		b.epoch.Freed += e.Freed
	}
	for _, n := range counterNames {
		b.counters[n] = metrics.Default().Counter(n).Value()
	}
	for _, n := range histNames {
		b.hists[n] = metrics.Default().Histogram(n).Snapshot()
	}
	if r.t.w.index == "hash" {
		// The table is a per-shard singleton, so this is the clients' table.
		if tab, err := r.t.store.HashTable(pmwcas.HashTableOptions{}); err == nil {
			hs := tab.Stats()
			b.counters["hash_splits"], b.counters["hash_doublings"], b.counters["hash_reclaims"] = hs.Splits, hs.Doublings, hs.Reclaims
		}
	}
	runtime.ReadMemStats(&b.mem)
	return b
}

// A measurement is everything one pass over the phases produced.
type measurement struct {
	r      *run
	bounds []boundary // bounds[w-1] and bounds[w] bracket window w
	// Headroom gauges, sampled every gaugeTick inside the windows.
	descFreeMin     int
	epochPendingMax uint64
}

func (m *measurement) sampleGauges() {
	free, pending := 0, uint64(0)
	for i, pool := range m.r.t.pools {
		free += pool.FreeDescriptors()
		pending += m.r.t.store.Shard(i).Epochs().Stats().Pending
	}
	if free < m.descFreeMin {
		m.descFreeMin = free
	}
	if pending > m.epochPendingMax {
		m.epochPendingMax = pending
	}
}

// measure starts the clients, holds warm-up, then steps through the timed
// windows sampling counters at each boundary, and stops the clients.
func (r *run) measure(warm, window time.Duration) (*measurement, error) {
	m := &measurement{r: r, descFreeMin: int(^uint(0) >> 1)}
	var conns []*wire.Client
	defer func() {
		for _, wc := range conns {
			_ = wc.Close() // only read from by now; the server sees EOF and releases the backend
		}
	}()
	loops := make([]func(), len(r.clients))
	for i, c := range r.clients {
		c := c
		if r.t.w.net {
			wc, err := wire.DialTimeout(r.t.addr, 10*time.Second)
			if err != nil {
				return nil, err
			}
			conns = append(conns, wc)
			loops[i] = func() { c.netLoop(wc, r.t.w.depth) }
		} else {
			h, err := r.t.newKV(int64(c.id) + 2)
			if err != nil {
				return nil, err
			}
			loops[i] = func() { c.embedLoop(h) }
		}
	}
	r.base = time.Now()
	var wg sync.WaitGroup
	for _, loop := range loops {
		loop := loop
		wg.Add(1)
		go func() { defer wg.Done(); loop() }()
	}

	time.Sleep(warm)
	m.sampleGauges()
	start := time.Now()
	for p := 1; p <= r.windows+1; p++ {
		m.bounds = append(m.bounds, r.sample())
		r.phase.Store(int32(p))
		for end := start.Add(time.Duration(p) * window); p <= r.windows && time.Now().Before(end); {
			time.Sleep(min(gaugeTick, time.Until(end)))
			m.sampleGauges()
		}
	}
	wg.Wait()
	for _, c := range r.clients {
		if c.firstErr != nil {
			fmt.Printf("# client %d: %d failed and %d lost ops, first: %v\n", c.id, c.failed, c.lost, c.firstErr)
		}
	}
	return m, nil
}
