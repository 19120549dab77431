package main

import (
	"fmt"
	"sort"
	"time"

	"pmwcas"
	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/keycodec"
	"pmwcas/internal/nvram"
	"pmwcas/internal/wire"
)

// The ladder prices each layer on its own: one goroutine replays client 0's
// stream against each rung's public API in turn, bottom layer first, and
// records the wall time per call and the device-counter delta per call.
// Single-threaded, the device counts are exact. Rungs that cost nanoseconds
// (device words, PCAS, guards, codecs) report the mean of the whole loop.
// Rungs that cost microseconds (index and blob calls, loopback round trips)
// time every call and report the median, so that they add up against the
// end-to-end p50s; the scans and round trips replay a quarter of the ops.

// cost is one rung's price per call.
type cost struct {
	ns                         float64
	deviceOps, flushes, fences float64
}

// price runs fn n times and returns its cost per call on dev: the mean time
// of the loop, or with each set the median of the calls timed one by one.
func price(dev *nvram.Device, n int, each bool, fn func(i int)) cost {
	var lat []uint32
	if each {
		lat = make([]uint32, n)
	}
	before := dev.Stats()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if each {
			c0 := time.Now()
			fn(i)
			lat[i] = uint32(time.Since(c0))
		} else {
			fn(i)
		}
	}
	el := time.Since(t0)
	after := dev.Stats()
	f := float64(n)
	ops := func(s nvram.Stats) uint64 { return s.Loads + s.Stores + s.CASes + s.Flushes + s.Fences }
	c := cost{
		ns:        float64(el) / f,
		deviceOps: float64(ops(after)-ops(before)) / f,
		flushes:   float64(after.Flushes-before.Flushes) / f,
		fences:    float64(after.Fences-before.Fences) / f,
	}
	if each {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		c.ns = percentile(lat, 0.5)
	}
	return c
}

// ladder is one traced run's ladder state.
type ladder struct {
	w      *workload
	keys   *keyTable
	stream []op
	n      int // ops replayed per cheap rung
	out    map[string]float64
	err    error // first rung call that failed
}

func (l *ladder) key(i int) int { return int(l.stream[i%len(l.stream)].key) }

// fresh maps i to a key above the preloaded range, each visited once in a
// scattered order, for the insert and delete rungs.
func (l *ladder) fresh(i int) int { return nKeys + i*40503%nKeys }

func (l *ladder) check(err error) {
	if err != nil && l.err == nil {
		l.err = err
	}
}

// substrate rungs: nvram, core, epoch and alloc on a device of their own,
// built the way the store builds a shard.
func (l *ladder) substrates() error {
	dev := nvram.New(32<<20, nvram.WithFlushLatency(flushLatency))
	lay := nvram.NewLayout(dev)
	spec := []alloc.Class{{BlockSize: 64, Count: 1 << 12}}
	allocRegion := lay.Carve(alloc.MetaSize(spec, 4))
	poolRegion := lay.Carve(core.PoolSize(4096, 8))
	scratch := lay.Carve(nKeys * nvram.WordSize)
	slot := lay.Carve(nvram.LineBytes)
	a, err := alloc.New(dev, allocRegion, spec, 4)
	if err != nil {
		return err
	}
	pool, err := core.NewPool(core.Config{Device: dev, Region: poolRegion, DescriptorCount: 4096,
		WordsPerDescriptor: 8, Mode: core.Persistent, Allocator: a})
	if err != nil {
		return err
	}
	addr := func(i int) nvram.Offset { return scratch.Base + nvram.Offset(l.key(i))*nvram.WordSize }
	// cur mirrors the scratch words so every compare-and-swap rung knows the
	// value it replaces and succeeds.
	cur := make([]uint64, nKeys)
	next := func(i int) (nvram.Offset, uint64, uint64) {
		k := l.key(i)
		old := cur[k]
		cur[k] = old + 1
		return scratch.Base + nvram.Offset(k)*nvram.WordSize, old, old + 1
	}

	var sink uint64
	//lint:allow rawload — this rung prices the raw device load itself, on scratch words no protocol owns yet
	l.out["nvram.load_ns"] = price(dev, l.n, false, func(i int) { sink += dev.Load(addr(i)) }).ns
	//lint:allow storefence — this rung prices the bare store; nothing recovers this scratch device, and the flush has a rung of its own
	l.out["nvram.store_ns"] = price(dev, l.n, false, func(i int) { a, _, v := next(i); dev.Store(a, v) }).ns
	l.out["nvram.cas_ns"] = price(dev, l.n, false, func(i int) {
		a, old, v := next(i)
		if !dev.CAS(a, old, v) {
			l.check(fmt.Errorf("nvram rung: CAS lost with one goroutine"))
		}
	}).ns
	l.out["nvram.flush_ns"] = price(dev, l.n, false, func(i int) { dev.Flush(addr(i)) }).ns

	l.out["core.pcas_ns"] = price(dev, l.n, false, func(i int) {
		a, old, v := next(i)
		if !core.PCAS(dev, a, old, v) {
			l.check(fmt.Errorf("core rung: PCAS lost with one goroutine"))
		}
	}).ns
	h := pool.NewHandle()
	// PCAS leaves its word dirty until the next reader persists it; the read
	// rung pays that for the words it visits, exactly as an index read would.
	l.out["core.read_ns"] = price(dev, l.n, false, func(i int) { sink += h.Read(addr(i)) }).ns
	for k := range cur {
		//lint:allow guardfact — scratch words live in a fixed region that is never reclaimed; epoch guards protect arena memory
		core.PCASRead(dev, scratch.Base+nvram.Offset(k)*nvram.WordSize) // leave every word clean and durable
	}
	// A 4-word PMwCAS over four words a quarter of the scratch area apart.
	c := price(dev, l.n, false, func(i int) {
		d, err := h.AllocateDescriptor(0)
		if err != nil {
			l.check(err)
			return
		}
		base := l.key(i) % (nKeys / 4)
		for j := 0; j < 4; j++ {
			k := base + j*nKeys/4
			l.check(d.AddWord(scratch.Base+nvram.Offset(k)*nvram.WordSize, cur[k], cur[k]+1))
			cur[k]++
		}
		if ok, err := d.Execute(); !ok || err != nil {
			l.check(fmt.Errorf("core rung: uncontended 4-word PMwCAS failed: %v", err))
		}
	})
	l.out["core.pmwcas4_ns"], l.out["core.pmwcas4_flushes"] = c.ns, c.flushes
	l.out["core.pmwcas4_fences"], l.out["core.pmwcas4_device_ops"] = c.fences, c.deviceOps

	g := h.Guard()
	l.out["epoch.guard_ns"] = price(dev, l.n, false, func(int) { g.Enter(); g.Exit() }).ns

	ah := a.NewHandle()
	c = price(dev, l.n, false, func(int) {
		b, err := ah.Alloc(64, slot.Base)
		if err == nil {
			err = a.Free(b)
		}
		l.check(err)
	})
	l.out["alloc.alloc_free_ns"], l.out["alloc.alloc_free_flushes"] = c.ns, c.flushes
	_ = sink
	return nil
}

// indexRungs prices the workload's word index through its handle. The
// skiplist's rungs run on a raw list of their own, since the blob layer owns
// the values of the list it sits on.
func (l *ladder) indexRungs(store *pmwcas.Store, name string) error {
	kvh, err := newWordKV(store, l.keys, l.w.index, 7)
	if err != nil {
		return err
	}
	dev, h := store.Device(), kvh.h
	words := l.keys.words
	c := price(dev, l.n, true, func(i int) { _, err := h.Get(words[l.key(i)]); l.check(err) })
	l.out[name+".get_ns"], l.out[name+".get_device_ops"] = c.ns, c.deviceOps
	c = price(dev, l.n, true, func(i int) { l.check(h.Update(words[l.key(i)], makeTag(0, uint64(i), l.key(i)))) })
	l.out[name+".update_ns"], l.out[name+".update_flushes"] = c.ns, c.flushes
	nf := min(l.n, nKeys)
	c = price(dev, nf, true, func(i int) { l.check(h.Insert(words[l.fresh(i)], makeTag(0, uint64(i), l.fresh(i)))) })
	l.out[name+".insert_ns"], l.out[name+".insert_flushes"] = c.ns, c.flushes
	c = price(dev, nf, true, func(i int) { l.check(h.Delete(words[l.fresh(i)])) })
	l.out[name+".delete_ns"], l.out[name+".delete_flushes"] = c.ns, c.flushes
	if kvh.scanFn != nil {
		l.out[name+".scan50_ns"] = price(dev, l.n/4, true, func(i int) { _, err := kvh.scan(l.key(i), scanLimit); l.check(err) }).ns
	}
	return nil
}

// codecRungs prices keycodec and the wire codec: pure CPU, no device.
func (l *ladder) codecRungs(dev *nvram.Device) {
	var sink uint64
	var buf []byte
	l.out["keycodec.encode_ns"] = price(dev, l.n, false, func(i int) {
		k, err := keycodec.Encode(l.keys.bytes[l.key(i)])
		l.check(err)
		sink += k
	}).ns
	l.out["keycodec.decode_ns"] = price(dev, l.n, false, func(i int) {
		var err error
		buf, err = keycodec.AppendDecode(buf[:0], l.keys.words[l.key(i)])
		l.check(err)
	}).ns

	// The wire rungs encode and decode the request and the response the
	// stream's i-th op puts on the wire.
	val := newValue()
	var entries []wire.Entry
	var reqBytes, respBytes int
	l.out["wire.req_codec_ns"] = price(dev, l.n, false, func(i int) {
		req := makeRequest(l.keys, l.stream[i%len(l.stream)], val)
		buf = wire.AppendRequest(buf[:0], &req)
		reqBytes += len(buf) + 4
		_, err := wire.DecodeRequest(buf)
		l.check(err)
	}).ns
	one := []wire.Entry{{Value: val}}
	fifty := make([]wire.Entry, scanLimit)
	for i := range fifty {
		fifty[i] = wire.Entry{Key: l.keys.bytes[i], Value: val}
	}
	respond := func(resp *wire.Response) {
		buf = wire.AppendResponse(buf[:0], resp)
		respBytes += len(buf) + 4
		r, err := wire.DecodeResponseInto(buf, entries)
		l.check(err)
		entries = r.Entries[:0]
	}
	l.out["wire.resp_codec_ns"] = price(dev, l.n, false, func(i int) {
		resp := wire.Response{Status: wire.StatusOK}
		switch l.stream[i%len(l.stream)].kind {
		case opGet:
			resp.Entries = one
		case opScan:
			resp.Entries = fifty
		}
		respond(&resp)
	}).ns
	l.out["wire.req_bytes"] = float64(reqBytes) / float64(l.n)
	l.out["wire.resp_bytes"] = float64(respBytes) / float64(l.n)
	l.out["wire.scan50_resp_codec_ns"] = price(dev, l.n/4, false, func(int) {
		respond(&wire.Response{Status: wire.StatusOK, Entries: fifty})
	}).ns
	_ = sink
}

// blobRungs prices the blob layer through a BlobKV handle set.
func (l *ladder) blobRungs(t *target) error {
	h, err := t.newKV(7)
	if err != nil {
		return err
	}
	dev := t.store.Device()
	c := price(dev, l.n, true, func(i int) { _, _, err := h.get(l.key(i)); l.check(err) })
	l.out["blobkv.get_ns"], l.out["blobkv.get_device_ops"] = c.ns, c.deviceOps
	c = price(dev, l.n, true, func(i int) { l.check(h.put(l.key(i), makeTag(0, uint64(i), l.key(i)))) })
	l.out["blobkv.put_ns"], l.out["blobkv.put_flushes"] = c.ns, c.flushes
	nf := min(l.n, nKeys)
	l.out["blobkv.insert_ns"] = price(dev, nf, true, func(i int) { l.check(h.put(l.fresh(i), makeTag(0, uint64(i), l.fresh(i)))) }).ns
	l.out["blobkv.delete_ns"] = price(dev, nf, true, func(i int) { _, err := h.del(l.fresh(i)); l.check(err) }).ns
	l.out["blobkv.scan50_ns"] = price(dev, l.n/4, true, func(i int) { _, err := h.scan(l.key(i), scanLimit); l.check(err) }).ns
	l.out["blobkv.put_self_ns"] = l.out["blobkv.put_ns"] - l.out["skiplist.update_ns"] - l.out["alloc.alloc_free_ns"]
	return nil
}

// serverRungs prices the loopback path with one synchronous client: PING
// (socket, connection loop and an empty frame, no backend), PING at depth
// 16, then GET and PUT round trips. Each call is timed; the rung is the
// median in microseconds.
func (l *ladder) serverRungs(t *target) error {
	wc, err := wire.DialTimeout(t.addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer wc.Close()
	dev := t.store.Device()
	median := func(fn func(i int) error) float64 {
		return price(dev, l.n/4, true, func(i int) { l.check(fn(i)) }).ns / 1e3
	}
	do := func(req *wire.Request) error {
		resp, err := wc.Do(req)
		if err == nil {
			err = resp.Err()
		}
		return err
	}
	ping := wire.Request{Op: wire.OpPing}
	l.out["server.ping_rtt_us"] = median(func(int) error { return do(&ping) })
	const depth = 16
	l.out["server.ping_p16_us_per_op"] = median(func(int) error {
		for j := 0; j < depth; j++ {
			if err := wc.Send(&ping); err != nil {
				return err
			}
		}
		if err := wc.Flush(); err != nil {
			return err
		}
		for j := 0; j < depth; j++ {
			if _, err := wc.Recv(); err != nil {
				return err
			}
		}
		return nil
	}) / depth
	l.out["server.get_rtt_us"] = median(func(i int) error {
		return do(&wire.Request{Op: wire.OpGet, Key: l.keys.bytes[l.key(i)]})
	})
	val := newValue()
	l.out["server.put_rtt_us"] = median(func(i int) error {
		setValueTag(val, makeTag(0, uint64(i), l.key(i)))
		return do(&wire.Request{Op: wire.OpPut, Key: l.keys.bytes[l.key(i)], Value: val})
	})
	return nil
}

// runLadder builds fresh stores for the workload and climbs every rung that
// applies to it. Rungs that do not apply stay 0.
func runLadder(w *workload, keys *keyTable, stream []op, n int) (map[string]float64, error) {
	l := &ladder{w: w, keys: keys, stream: stream, n: n, out: map[string]float64{}}
	if err := l.substrates(); err != nil {
		return nil, err
	}
	t, err := setUp(w, keys, make([]uint64, nKeys))
	if err != nil {
		return nil, err
	}
	defer t.stopServer()
	switch w.index {
	case "skiplist":
		raw, err := pmwcas.Create(storeConfig(w))
		if err != nil {
			return nil, err
		}
		h, err := newWordKV(raw, keys, "skiplist", 1)
		if err != nil {
			return nil, err
		}
		if err := preload(nKeys, h, make([]uint64, nKeys)); err != nil {
			return nil, err
		}
		if err := l.indexRungs(raw, "skiplist"); err != nil {
			return nil, err
		}
		l.codecRungs(t.store.Device())
		if err := l.blobRungs(t); err != nil {
			return nil, err
		}
	case "bwtree":
		if err := l.indexRungs(t.store, "bwtree"); err != nil {
			return nil, err
		}
		l.codecRungs(t.store.Device())
	case "hash":
		if err := l.indexRungs(t.store, "hashtable"); err != nil {
			return nil, err
		}
		l.codecRungs(t.store.Device())
	}
	if w.net {
		if err := l.serverRungs(t); err != nil {
			return nil, err
		}
		l.out["residual.get_us"] = l.out["server.get_rtt_us"] - l.out["server.ping_rtt_us"] - l.out["blobkv.get_ns"]/1e3
		l.out["residual.put_us"] = l.out["server.put_rtt_us"] - l.out["server.ping_rtt_us"] - l.out["blobkv.put_ns"]/1e3
	}
	return l.out, l.err
}
