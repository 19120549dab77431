// Package server is the concurrent network front-end over a pmwcas
// Store: a TCP listener speaking the internal/wire protocol, one
// goroutine per connection, per-connection store handles leased from a
// fixed pool (handle budgets are startup decisions in every layer of the
// store, so the pool is minted before the first accept), request
// pipelining with batched writes, a connection cap with graceful
// rejection, and a shutdown path that drains in-flight requests before
// the store is closed.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pmwcas"
	"pmwcas/internal/keycodec"
	"pmwcas/internal/metrics"
	"pmwcas/internal/wire"
)

// Wire-level instruments (DRAM-only; see internal/metrics). Per-command
// latency runs decode-to-write — the server-side cost a client observes
// minus network. Pipeline depth is sampled at each flush: how many
// responses one write syscall carried.
var (
	mCmdNs = map[wire.Op]*metrics.Histogram{
		wire.OpPing:    metrics.NewHistogram("server_ping_ns"),
		wire.OpGet:     metrics.NewHistogram("server_get_ns"),
		wire.OpPut:     metrics.NewHistogram("server_put_ns"),
		wire.OpDelete:  metrics.NewHistogram("server_delete_ns"),
		wire.OpScan:    metrics.NewHistogram("server_scan_ns"),
		wire.OpStats:   metrics.NewHistogram("server_stats_ns"),
		wire.OpMetrics: metrics.NewHistogram("server_metrics_ns"),
	}
	mPipelineDepth = metrics.NewHistogram("server_pipeline_depth")
	mBadRequests   = metrics.NewCounter("server_bad_requests")
	mBusyRejects   = metrics.NewCounter("server_busy_rejects")
	mActiveConns   = metrics.NewGauge("server_active_conns")
)

// Config assembles a Server.
type Config struct {
	// Store is the open store to serve. The server does not close it;
	// callers Close/Checkpoint after Shutdown returns.
	Store *pmwcas.Store
	// Index selects the storage backend (default IndexSkipList).
	Index Index
	// MaxConns caps concurrent connections — it is also the store-handle
	// pool size, so the store's MaxHandles budget must cover it (the
	// skip-list path spends 4 store handles per connection). Default 16.
	MaxConns int
	// ReadTimeout, if set, closes connections idle longer than this.
	ReadTimeout time.Duration
	// WriteTimeout, if set, bounds each response flush.
	WriteTimeout time.Duration
	// DrainGrace bounds how long a shutdown waits for each connection's
	// in-flight and pipelined requests (default 250ms).
	DrainGrace time.Duration
	// Logf, if set, receives connection-level error logs.
	Logf func(format string, args ...any)
}

// Server is one listening front-end. Create with New, run with Serve or
// ListenAndServe, stop with Shutdown.
type Server struct {
	cfg  Config
	pool chan backend

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed atomic.Bool
	wg     sync.WaitGroup

	// Served counts completed requests (all connections, lifetime).
	served atomic.Uint64
	// Rejected counts connections turned away at the cap.
	rejected atomic.Uint64
}

// New builds a server and mints its backend pool. Handle budgeting
// happens here: a store too small for MaxConns fails fast, not at the
// first accept.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	if cfg.Index == "" {
		cfg.Index = IndexSkipList
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 16
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 250 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	backends, err := newBackends(cfg.Store, cfg.Index, cfg.MaxConns)
	if err != nil {
		return nil, err
	}
	pool := make(chan backend, len(backends))
	for _, b := range backends {
		pool <- b
	}
	return &Server{cfg: cfg, pool: pool, conns: make(map[net.Conn]struct{})}, nil
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown. It returns nil after a
// clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		select {
		case b := <-s.pool:
			if s.closed.Load() {
				// Shutdown raced the accept: turn the connection away.
				s.pool <- b
				s.reject(conn, "server shutting down")
				continue
			}
			s.wg.Add(1)
			s.mu.Lock()
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			go s.serveConn(conn, b)
		default:
			// Connection cap: every backend is leased. Reject gracefully
			// with a BUSY response instead of a silent RST.
			s.reject(conn, fmt.Sprintf("connection cap (%d) reached", s.cfg.MaxConns))
		}
	}
}

// Addr returns the bound listener address (after Serve has started).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Served returns the number of requests completed over the server's
// lifetime; Rejected the number of connections turned away at the cap.
func (s *Server) Served() uint64   { return s.served.Load() }
func (s *Server) Rejected() uint64 { return s.rejected.Load() }

// reject answers a connection the server cannot take with one BUSY frame
// and closes it. The write-then-drain runs off the accept loop: a client
// that already pipelined a request has unread bytes in our receive
// buffer, and closing over them turns into an RST that discards the BUSY
// frame before the client can read it. Draining until the client closes
// (bounded by a deadline) lets the rejection actually arrive.
//
// The goroutine is registered exactly like a serving connection — in
// s.wg and s.conns — so Shutdown waits for in-flight rejections and its
// force-close path can cut their up-to-two-second drains short. An
// untracked rejection would outlive Shutdown and write to a store the
// caller may already be closing.
func (s *Server) reject(conn net.Conn, why string) {
	s.rejected.Add(1)
	mBusyRejects.Inc(metrics.StripeAt(int(s.rejected.Load())))
	s.mu.Lock()
	if s.closed.Load() {
		// Shutdown already ran (or is running) its drain: it may have
		// passed wg.Wait and the conns poke, so neither would cover this
		// goroutine. The client gets a plain close instead of a BUSY frame.
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	s.wg.Add(1)
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	go func() {
		defer func() {
			_ = conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			s.wg.Done()
		}()
		_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
		body := wire.AppendResponse(nil, &wire.Response{Status: wire.StatusBusy, Msg: why})
		_ = wire.WriteFrame(conn, body)
		if tc, ok := conn.(*net.TCPConn); ok && !s.closed.Load() {
			// Skip the courtesy drain during shutdown; the deadline pokes
			// from Shutdown only help if they are not overwritten here.
			_ = tc.CloseWrite()
			_ = conn.SetReadDeadline(time.Now().Add(time.Second))
			_, _ = io.Copy(io.Discard, conn)
		}
	}()
}

// Shutdown stops accepting, gives every connection DrainGrace to finish
// the requests it has in flight (including pipelined ones already
// buffered), then waits for all connection goroutines. If ctx expires
// first, remaining connections are force-closed and ctx's error is
// returned. The store itself is untouched: callers Close it after
// Shutdown returns, at which point no handle is active.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closed.Swap(true) {
		return nil // second Shutdown is a no-op
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	// Poke every connection: a read blocked waiting for the next request
	// fails once the grace deadline passes, and the connection loop exits
	// after answering everything that arrived before it.
	deadline := time.Now().Add(s.cfg.DrainGrace)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for conn := range s.conns {
		_ = conn.SetReadDeadline(deadline)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			_ = conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// serveConn is one connection's request loop: read frame, execute,
// append response, flushing only when no further request is already
// buffered (write batching under pipelining).
func (s *Server) serveConn(conn net.Conn, b backend) {
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	lane := metrics.NextStripe()
	mActiveConns.Add(1)
	defer func() {
		_ = bw.Flush()
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		mActiveConns.Add(-1)
		s.pool <- b // lease back before wg.Done: Shutdown's drain sees a full pool
		s.wg.Done()
	}()

	var frame, respBuf []byte
	var sc respScratch
	var batch int64 // responses written since the last flush
	for {
		if s.cfg.ReadTimeout > 0 && !s.closed.Load() {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		body, err := wire.ReadFrame(br, frame)
		if err != nil {
			// EOF, idle timeout, shutdown grace expiry, or a broken frame:
			// in every case the response stream is flushed and the
			// connection closed. Requests fully received were answered.
			if !isExpectedClose(err) {
				s.cfg.Logf("server: %s: read: %v", conn.RemoteAddr(), err)
			}
			return
		}
		frame = body[:cap(body)]

		var t0 time.Time
		if metrics.On() {
			t0 = time.Now()
		}
		req, derr := wire.DecodeRequest(body)
		var resp wire.Response
		if derr != nil {
			mBadRequests.Inc(lane)
			resp = wire.Response{Status: wire.StatusBadRequest, Msg: derr.Error()}
		} else {
			resp = s.handle(b, &req, &sc)
		}
		s.served.Add(1)

		respBuf = wire.AppendResponse(respBuf[:0], &resp)
		if s.cfg.WriteTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		if err := wire.WriteFrame(bw, respBuf); err != nil {
			s.cfg.Logf("server: %s: write: %v", conn.RemoteAddr(), err)
			return
		}
		batch++
		if !t0.IsZero() && derr == nil {
			if h := mCmdNs[req.Op]; h != nil {
				h.ObserveSince(lane, t0)
			}
		}
		// Batch writes across a pipelined burst: flush only when the next
		// read could block (no request bytes already buffered).
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				s.cfg.Logf("server: %s: flush: %v", conn.RemoteAddr(), err)
				return
			}
			mPipelineDepth.Observe(lane, batch)
			batch = 0
		}
	}
}

// respScratch is a connection's reusable response state: the one-entry
// array GET responses alias instead of allocating a fresh Entries slice
// per request. Valid until the next handle call on the same connection —
// serveConn encodes each response before reading the next frame.
type respScratch struct {
	one [1]wire.Entry
}

// handle executes one decoded request against the connection's backend.
// Point ops take the allocation-verified fast path; everything else
// (scans, admin ops) returns variable-size output and is priced
// per-call.
func (s *Server) handle(b backend, req *wire.Request, sc *respScratch) wire.Response {
	switch req.Op {
	case wire.OpPing, wire.OpGet, wire.OpPut, wire.OpDelete:
		return s.handlePoint(b, req, sc)
	}
	return s.handleSlow(b, req)
}

// handlePoint serves the four point ops. The response's Entries alias
// sc; its Msg strings are constants or rare-path renderings.
//
//pmwcas:hotpath — per-request server point-op path: decoded request to encoded response with zero steady-state heap traffic
func (s *Server) handlePoint(b backend, req *wire.Request, sc *respScratch) wire.Response {
	switch req.Op {
	case wire.OpPing:
		return wire.Response{Status: wire.StatusOK}

	case wire.OpGet:
		//lint:allow hotpath, nonblock — backend dispatch: every concrete backend point op is itself a //pmwcas:hotpath root (backend.go, sharded.go), so the proof continues on the other side of the interface (§6.3)
		v, err := b.Get(req.Key)
		if err != nil {
			return errResponse(err)
		}
		sc.one[0] = wire.Entry{Value: v}
		return wire.Response{Status: wire.StatusOK, Entries: sc.one[:]}

	case wire.OpPut:
		//lint:allow hotpath, nonblock — backend dispatch: every concrete backend point op is itself a //pmwcas:hotpath root (backend.go, sharded.go), so the proof continues on the other side of the interface (§6.3)
		if err := b.Put(req.Key, req.Value); err != nil {
			return errResponse(err)
		}
		return wire.Response{Status: wire.StatusOK}

	case wire.OpDelete:
		//lint:allow hotpath, nonblock — backend dispatch: every concrete backend point op is itself a //pmwcas:hotpath root (backend.go, sharded.go), so the proof continues on the other side of the interface (§6.3)
		if err := b.Delete(req.Key); err != nil {
			return errResponse(err)
		}
		return wire.Response{Status: wire.StatusOK}
	}
	return wire.Response{Status: wire.StatusBadRequest, Msg: "not a point op"}
}

// handleSlow serves the variable-output ops: scans and the admin
// surface.
func (s *Server) handleSlow(b backend, req *wire.Request) wire.Response {
	switch req.Op {
	case wire.OpScan:
		limit := int(req.Limit)
		if limit <= 0 || limit > wire.MaxScanEntries {
			if req.Limit == 0 {
				limit = 100
			} else {
				limit = wire.MaxScanEntries
			}
		}
		entries := make([]wire.Entry, 0, min(limit, 64))
		err := b.Scan(req.Key, req.End, limit, func(k, v []byte) bool {
			entries = append(entries, wire.Entry{
				Key:   append([]byte(nil), k...),
				Value: append([]byte(nil), v...),
			})
			return true
		})
		if err != nil {
			return errResponse(err)
		}
		return wire.Response{Status: wire.StatusOK, Entries: entries}

	case wire.OpStats:
		return wire.Response{Status: wire.StatusOK, Entries: []wire.Entry{
			{Value: []byte(FormatStats(s.cfg.Store.Stats()))},
		}}

	case wire.OpMetrics:
		// The key selects the view: empty renders the registry snapshot
		// (counters, gauges, histogram percentiles), "trace" dumps the
		// descriptor lifecycle ring as JSON.
		switch string(req.Key) {
		case "":
			return wire.Response{Status: wire.StatusOK, Entries: []wire.Entry{
				{Value: []byte(metrics.Default().Snapshot().Format())},
			}}
		case "trace":
			b, err := metrics.DefaultTrace().DumpJSON()
			if err != nil {
				return wire.Response{Status: wire.StatusErr, Msg: err.Error()}
			}
			return wire.Response{Status: wire.StatusOK, Entries: []wire.Entry{{Value: b}}}
		}
		return wire.Response{Status: wire.StatusBadRequest,
			Msg: fmt.Sprintf("unknown METRICS view %q (want empty or \"trace\")", req.Key)}
	}
	return wire.Response{Status: wire.StatusBadRequest, Msg: fmt.Sprintf("unhandled op %s", req.Op)}
}

// errResponse maps backend errors onto wire statuses.
func errResponse(err error) wire.Response {
	switch {
	case errors.Is(err, pmwcas.ErrNotFound):
		return wire.Response{Status: wire.StatusNotFound, Msg: "key not found"}
	case errors.Is(err, keycodec.ErrTooLong),
		errors.Is(err, pmwcas.ErrBlobValueTooLarge),
		errors.Is(err, pmwcas.ErrUnordered):
		//lint:allow hotpath — renders the rejection message for a malformed request; the OK and NotFound arms return constant strings (§6.3)
		return wire.Response{Status: wire.StatusBadRequest, Msg: err.Error()}
	}
	//lint:allow hotpath — renders the failure message for a request the store could not execute; the OK and NotFound arms return constant strings (§6.3)
	return wire.Response{Status: wire.StatusErr, Msg: err.Error()}
}

// FormatStats renders a StoreStats snapshot as the STATS payload: one
// "name value" per line, flat names, stable order — trivially parseable
// and diffable from the command line.
func FormatStats(st pmwcas.StoreStats) string {
	var b []byte
	add := func(name string, v uint64) {
		b = append(b, name...)
		b = append(b, ' ')
		b = fmt.Appendf(b, "%d\n", v)
	}
	add("pmwcas_descriptors_allocated", st.Pool.Allocated)
	add("pmwcas_succeeded", st.Pool.Succeeded)
	add("pmwcas_failed", st.Pool.Failed)
	add("pmwcas_discarded", st.Pool.Discarded)
	add("pmwcas_helps", st.Pool.Helps)
	add("pmwcas_reads_helped", st.Pool.Reads)
	add("descriptors_free", uint64(st.DescriptorsFree))
	add("descriptors_cap", uint64(st.DescriptorsCap))
	add("epoch_advances", st.Epoch.Advances)
	add("epoch_deferred", st.Epoch.Deferred)
	add("epoch_freed", st.Epoch.Freed)
	add("epoch_pending", st.Epoch.Pending)
	add("epoch_guards", st.Epoch.Guards)
	add("alloc_blocks_in_use", st.AllocBlocks)
	add("alloc_bytes_in_use", st.AllocBytes)
	add("alloc_blocks_cap", st.AllocCapBlocks)
	add("alloc_bytes_cap", st.AllocCapBytes)
	add("shards", uint64(st.Shards))
	add("hash_splits", st.HashSplits)
	add("hash_doublings", st.HashDoublings)
	add("hash_reclaims", st.HashReclaims)
	add("hash_sealed_buckets", st.HashSealedBuckets)
	add("device_loads", st.Device.Loads)
	add("device_stores", st.Device.Stores)
	add("device_cases", st.Device.CASes)
	add("device_flushes", st.Device.Flushes)
	add("device_fences", st.Device.Fences)
	add("device_crashes", st.Device.Crashes)
	return string(b)
}

// isExpectedClose reports whether a read error is part of the normal
// connection lifecycle rather than a protocol problem worth logging.
func isExpectedClose(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(err, net.ErrClosed)
}
