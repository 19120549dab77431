package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pmwcas"
	"pmwcas/internal/blobkv"
	"pmwcas/internal/wire"
)

// startServer creates a store, a server over it, and a running listener
// on a loopback port. The returned shutdown func is idempotent.
func startServer(t *testing.T, index Index, maxConns int) (*Server, *pmwcas.Store, string, func()) {
	t.Helper()
	return startServerOn(t, pmwcas.Config{Size: 64 << 20, Descriptors: 2048}, index, maxConns)
}

// startServerOn is startServer over a store created from cfg.
func startServerOn(t *testing.T, cfg pmwcas.Config, index Index, maxConns int) (*Server, *pmwcas.Store, string, func()) {
	t.Helper()
	store, err := pmwcas.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store:      store,
		Index:      index,
		MaxConns:   maxConns,
		DrainGrace: 500 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	// Wait until Serve has registered the listener, so a Shutdown issued
	// right away cannot race the registration.
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}

	var once sync.Once
	stop := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			if err := <-serveErr; err != nil {
				t.Errorf("serve: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return srv, store, ln.Addr().String(), stop
}

func dial(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestPutGetDeleteScan runs one script against every index: the wire
// surface is the same whatever serves it, except that the hash index has
// no order to SCAN in.
func TestPutGetDeleteScan(t *testing.T) {
	for _, tc := range []struct {
		index   Index
		ordered bool
	}{
		{IndexSkipList, true},
		{IndexBwTree, true},
		{IndexHash, false},
	} {
		t.Run(string(tc.index), func(t *testing.T) {
			_, _, addr, _ := startServer(t, tc.index, 4)
			c := dial(t, addr)

			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
			pairs := map[string]string{
				"apple": "red", "banana": "yellow", "cherry": "dark", "date": "brown", "": "empty",
			}
			for k, v := range pairs {
				if err := c.Put([]byte(k), []byte(v)); err != nil {
					t.Fatalf("put %q: %v", k, err)
				}
			}
			for k, v := range pairs {
				got, err := c.Get([]byte(k))
				if err != nil {
					t.Fatalf("get %q: %v", k, err)
				}
				if string(got) != v {
					t.Fatalf("get %q = %q, want %q", k, got, v)
				}
			}
			// Overwrite.
			if err := c.Put([]byte("apple"), []byte("green")); err != nil {
				t.Fatal(err)
			}
			if got, _ := c.Get([]byte("apple")); string(got) != "green" {
				t.Fatalf("after overwrite: %q", got)
			}
			// Missing key.
			if _, err := c.Get([]byte("nope")); !errors.Is(err, wire.ErrNotFound) {
				t.Fatalf("get missing: %v", err)
			}
			// Delete, then the key is gone.
			if err := c.Delete([]byte("date")); err != nil {
				t.Fatal(err)
			}
			if err := c.Delete([]byte("date")); !errors.Is(err, wire.ErrNotFound) {
				t.Fatalf("second delete: %v", err)
			}
			if _, err := c.Get([]byte("date")); !errors.Is(err, wire.ErrNotFound) {
				t.Fatalf("get after delete: %v", err)
			}
			// The largest value the blob layer holds is served; one byte
			// more is a BAD_REQUEST, and the connection survives it.
			big := bytes.Repeat([]byte("x"), blobkv.MaxValueLen+1)
			if err := c.Put([]byte("big"), big[:blobkv.MaxValueLen]); err != nil {
				t.Fatalf("put %d-byte value: %v", blobkv.MaxValueLen, err)
			}
			if got, err := c.Get([]byte("big")); err != nil || !bytes.Equal(got, big[:blobkv.MaxValueLen]) {
				t.Fatalf("get %d-byte value: %d bytes, %v", blobkv.MaxValueLen, len(got), err)
			}
			resp, err := c.Do(&wire.Request{Op: wire.OpPut, Key: []byte("big"), Value: big})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != wire.StatusBadRequest {
				t.Fatalf("%d-byte value: %s, want BAD_REQUEST", len(big), resp.Status)
			}
			if err := c.Delete([]byte("big")); err != nil {
				t.Fatal(err)
			}

			if !tc.ordered {
				resp, err := c.Do(&wire.Request{Op: wire.OpScan, Key: []byte("a"), End: []byte("d")})
				if err != nil {
					t.Fatal(err)
				}
				if resp.Status != wire.StatusBadRequest {
					t.Fatalf("SCAN on %s: %s, want BAD_REQUEST", tc.index, resp.Status)
				}
				return
			}
			// Ordered scan over a closed range.
			entries, err := c.Scan([]byte("a"), []byte("d"), 0)
			if err != nil {
				t.Fatal(err)
			}
			var keys []string
			for _, e := range entries {
				keys = append(keys, string(e.Key))
			}
			want := []string{"apple", "banana", "cherry"}
			if strings.Join(keys, ",") != strings.Join(want, ",") {
				t.Fatalf("scan keys = %v, want %v", keys, want)
			}
			// Open-ended scan sees everything (including the empty key).
			entries, err = c.Scan(nil, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 4 {
				t.Fatalf("full scan: %d entries, want 4", len(entries))
			}
			// Limit is honored.
			entries, err = c.Scan(nil, nil, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 2 {
				t.Fatalf("limited scan: %d entries, want 2", len(entries))
			}
		})
	}
}

func TestBadRequests(t *testing.T) {
	_, _, addr, _ := startServer(t, IndexSkipList, 2)
	c := dial(t, addr)

	// Key over the codec limit: BAD_REQUEST, and the connection survives.
	resp, err := c.Do(&wire.Request{Op: wire.OpPut, Key: []byte("way too long a key"), Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusBadRequest {
		t.Fatalf("long key: %s", resp.Status)
	}
	// The same key is as malformed on DELETE as on PUT.
	resp, err = c.Do(&wire.Request{Op: wire.OpDelete, Key: []byte("way too long a key")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusBadRequest {
		t.Fatalf("long key on DELETE: %s", resp.Status)
	}
	// Oversized value on the bwtree-free skiplist path.
	resp, err = c.Do(&wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: bytes.Repeat([]byte("x"), 5000)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusBadRequest {
		t.Fatalf("huge value: %s", resp.Status)
	}
	// A syntactically broken body (unknown op) also answers BAD_REQUEST.
	resp, err = c.Do(&wire.Request{Op: wire.Op(99), Key: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusBadRequest {
		t.Fatalf("unknown op: %s", resp.Status)
	}
	// The connection still works after every rejection.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// An index failure that is not a missing key answers ERR, not
// NOT_FOUND: with the store's one 64-byte class full (a fresh Bw-tree's
// root page plus five blob inserts of a record and a delta each), a
// DELETE of a present key cannot allocate its delta.
func TestIndexErrorsAnswerErr(t *testing.T) {
	cfg := pmwcas.Config{
		Size: 8 << 20, Descriptors: 256,
		Classes: []pmwcas.SizeClass{{BlockSize: 64, Count: 11}},
	}
	_, _, addr, _ := startServerOn(t, cfg, IndexBwTree, 1)
	c := dial(t, addr)
	val := bytes.Repeat([]byte("v"), 40)
	for i := 0; i < 5; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%d", i)), val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for _, req := range []*wire.Request{
		{Op: wire.OpPut, Key: []byte("k5"), Value: val},
		{Op: wire.OpDelete, Key: []byte("k0")},
	} {
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusErr {
			t.Fatalf("%s with the class full: %s %q, want ERR", req.Op, resp.Status, resp.Msg)
		}
	}
	if got, err := c.Get([]byte("k0")); err != nil || !bytes.Equal(got, val) {
		t.Fatalf("get k0 = %q, %v", got, err)
	}
}

func TestPipelining(t *testing.T) {
	_, _, addr, _ := startServer(t, IndexSkipList, 2)
	c := dial(t, addr)

	const n = 200
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k%05d", i))
		if err := c.Send(&wire.Request{Op: wire.OpPut, Key: key, Value: key}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		resp, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if resp.Status != wire.StatusOK {
			t.Fatalf("put %d: %s: %s", i, resp.Status, resp.Msg)
		}
	}
	// Interleave ops in one pipeline; responses come back in order.
	c.Send(&wire.Request{Op: wire.OpGet, Key: []byte("k00042")})
	c.Send(&wire.Request{Op: wire.OpDelete, Key: []byte("k00042")})
	c.Send(&wire.Request{Op: wire.OpGet, Key: []byte("k00042")})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	r1, _ := c.Recv()
	r2, _ := c.Recv()
	r3, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Status != wire.StatusOK || string(r1.Entries[0].Value) != "k00042" {
		t.Fatalf("pipelined get: %+v", r1)
	}
	if r2.Status != wire.StatusOK {
		t.Fatalf("pipelined delete: %+v", r2)
	}
	if r3.Status != wire.StatusNotFound {
		t.Fatalf("pipelined get-after-delete: %+v", r3)
	}
}

func TestStats(t *testing.T) {
	_, _, addr, _ := startServer(t, IndexSkipList, 2)
	c := dial(t, addr)
	for i := 0; i < 10; i++ {
		if err := c.Put([]byte(fmt.Sprintf("s%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	text, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		var name string
		var v uint64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &v); err != nil {
			t.Fatalf("unparseable stats line %q", line)
		}
		counters[name] = v
	}
	for _, name := range []string{
		"pmwcas_descriptors_allocated", "pmwcas_succeeded", "epoch_advances",
		"epoch_deferred", "alloc_blocks_in_use", "device_flushes",
	} {
		if counters[name] == 0 {
			t.Errorf("counter %s is zero after 10 puts\nstats:\n%s", name, text)
		}
	}
	if counters["alloc_blocks_cap"] == 0 || counters["descriptors_cap"] == 0 {
		t.Errorf("capacity counters missing:\n%s", text)
	}
	// Zero is a fine value for it; the line must be there.
	if _, ok := counters["device_clean_flushes"]; !ok {
		t.Errorf("device_clean_flushes missing:\n%s", text)
	}
}

// TestMetricsCoversEveryLayer: after a small GET/PUT/SCAN mix over
// loopback, the METRICS payload carries a populated histogram from every
// layer a request crosses — server, PMwCAS, epochs, allocator, index. A
// layer whose instrument is renamed or no longer recorded fails here.
// The mix is 400 ops because guard hold time is sampled 1-in-64.
func TestMetricsCoversEveryLayer(t *testing.T) {
	_, _, addr, _ := startServer(t, IndexSkipList, 2)
	c := dial(t, addr)
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("m%03d", i))
		if err := c.Put(key, []byte("value")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Scan([]byte("m"), nil, 10); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]uint64{}
	for _, line := range strings.Split(text, "\n") {
		var name string
		var n uint64
		if _, err := fmt.Sscanf(line, "%s count=%d", &name, &n); err == nil {
			counts[name] = n
		}
	}
	for _, name := range []string{
		"server_get_ns", "server_put_ns", "server_scan_ns", "server_pipeline_depth",
		"core_pmwcas_exec_ns", "epoch_guard_hold_ns", "alloc_ns", "skiplist_find_steps",
	} {
		if counts[name] == 0 {
			t.Errorf("histogram %s is missing or empty after the mix\nmetrics:\n%s", name, text)
		}
	}
}

func TestConnectionCapGracefulRejection(t *testing.T) {
	srv, _, addr, _ := startServer(t, IndexSkipList, 1)

	c1 := dial(t, addr)
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	// Second connection: accepted at TCP level, answered with one BUSY
	// frame, then closed.
	c2 := dial(t, addr)
	resp, err := c2.Recv()
	if err != nil {
		t.Fatalf("reading rejection: %v", err)
	}
	if resp.Status != wire.StatusBusy {
		t.Fatalf("rejection status = %s, want BUSY", resp.Status)
	}
	if _, err := c2.Recv(); err == nil {
		t.Fatal("rejected connection stayed open")
	}
	if srv.Rejected() != 1 {
		t.Fatalf("Rejected() = %d, want 1", srv.Rejected())
	}
	// The first connection is unaffected.
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	// Dropping it frees the slot for a newcomer.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3 := dial(t, addr)
		if err := c3.Ping(); err == nil {
			break
		}
		c3.Close()
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after close")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulShutdownDrain is the acceptance-criteria drain test: a
// pipelined burst is in flight when Shutdown is called, every request in
// the burst still gets a response, and the store is quiescent (closable)
// afterwards.
func TestGracefulShutdownDrain(t *testing.T) {
	srv, store, addr, stop := startServer(t, IndexSkipList, 4)
	c := dial(t, addr)
	// A round trip first: the server must have adopted the connection
	// (not merely the kernel's accept queue) before the burst starts.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	const n = 500
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("d%05d", i))
		if err := c.Send(&wire.Request{Op: wire.OpPut, Key: key, Value: key}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Shut down while the burst is mid-flight.
	shutdownDone := make(chan struct{})
	go func() { stop(); close(shutdownDone) }()

	ok := 0
	for i := 0; i < n; i++ {
		resp, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d during shutdown: %v (drained %d)", i, err, ok)
		}
		if resp.Status != wire.StatusOK {
			t.Fatalf("request %d failed during drain: %s %s", i, resp.Status, resp.Msg)
		}
		ok++
	}
	<-shutdownDone
	if got := srv.Served(); got < n {
		t.Fatalf("Served() = %d, want >= %d", got, n)
	}
	// New connections are refused after shutdown.
	if c2, err := wire.DialTimeout(addr, time.Second); err == nil {
		if resp, rerr := c2.Recv(); rerr == nil && resp.Status != wire.StatusBusy {
			t.Fatalf("post-shutdown connection got %s", resp.Status)
		}
		c2.Close()
	}
	// Every handle is idle: Close (epoch drain) must not panic, and the
	// data written during the drained burst is present.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestShutdownIdempotentAndServeAfterShutdown(t *testing.T) {
	srv, _, _, stop := startServer(t, IndexSkipList, 2)
	stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve after Shutdown succeeded")
	}
}

// TestConcurrentClients drives every connection slot with a mixed
// workload at once; run under -race this is the server's concurrency
// test.
func TestConcurrentClients(t *testing.T) {
	_, _, addr, _ := startServer(t, IndexSkipList, 8)

	const conns, opsPer = 8, 300
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := wire.DialTimeout(addr, 5*time.Second)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			for i := 0; i < opsPer; i++ {
				key := []byte(fmt.Sprintf("w%dk%04d", w, i%50))
				switch i % 4 {
				case 0, 1:
					if err := c.Put(key, key); err != nil {
						errs[w] = fmt.Errorf("put: %w", err)
						return
					}
				case 2:
					if _, err := c.Get(key); err != nil && !errors.Is(err, wire.ErrNotFound) {
						errs[w] = fmt.Errorf("get: %w", err)
						return
					}
				case 3:
					if _, err := c.Scan(key[:2], nil, 10); err != nil {
						errs[w] = fmt.Errorf("scan: %w", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("conn %d: %v", w, err)
		}
	}
}

func TestFormatStats(t *testing.T) {
	store, err := pmwcas.Create(pmwcas.Config{Size: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	text := FormatStats(store.Stats())
	if !strings.Contains(text, "descriptors_cap 1024\n") {
		t.Fatalf("stats text missing pool capacity:\n%s", text)
	}
}

// TestFormatStatsCoversEveryField plants a distinct sentinel in every
// numeric StoreStats leaf (including nested Pool/Epoch/Device structs)
// and asserts each sentinel appears in the FormatStats output. A field
// added to StoreStats but silently dropped from the STATS wire surface
// fails here by name.
func TestFormatStatsCoversEveryField(t *testing.T) {
	var st pmwcas.StoreStats
	sentinels := map[string]uint64{}
	next := uint64(900001)
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				if !f.IsExported() {
					continue
				}
				fill(v.Field(i), path+"."+f.Name)
			}
		case reflect.Uint, reflect.Uint32, reflect.Uint64:
			v.SetUint(next)
			sentinels[path] = next
			next++
		case reflect.Int, reflect.Int32, reflect.Int64:
			v.SetInt(int64(next))
			sentinels[path] = next
			next++
		default:
			t.Fatalf("StoreStats leaf %s has unhandled kind %s — extend this test", path, v.Kind())
		}
	}
	fill(reflect.ValueOf(&st).Elem(), "StoreStats")
	if len(sentinels) == 0 {
		t.Fatal("reflection found no numeric fields in StoreStats")
	}
	text := FormatStats(st)
	for path, want := range sentinels {
		if !strings.Contains(text, fmt.Sprintf(" %d\n", want)) {
			t.Errorf("%s (sentinel %d) missing from FormatStats output", path, want)
		}
	}
	if t.Failed() {
		t.Logf("FormatStats output:\n%s", text)
	}
}
