// Command pmwcas-server serves a pmwcas store over TCP with the
// internal/wire protocol (GET/PUT/DELETE/SCAN/STATS/PING, pipelined).
//
// The store is a simulated-NVRAM pmwcas.Store: with -file, a snapshot is
// loaded at startup (if present) and written back on clean shutdown, so
// data survives server restarts the same way it survives power failures
// — through PMwCAS recovery on the reopened image. A restored store takes
// its geometry from the image: -size, -shards and -descriptors apply to a
// fresh store, and on a restore only those given on the command line are
// checked against the image.
//
// Usage:
//
//	pmwcas-server [-addr :7171] [-file store.img] [-index skiplist|bwtree|hash]
//	              [-mode persistent|volatile] [-size mib] [-shards n] [-maxconns n]
//	              [-debug-addr 127.0.0.1:7172] [-metrics]
//
// -debug-addr, when set, serves the observability surface over HTTP:
// /metrics (JSON snapshot), /metrics.txt (wire METRICS text), /trace
// (PMwCAS descriptor lifecycle ring as JSON), and /debug/pprof/*. Keep
// it on a loopback or otherwise access-controlled address.
//
// Stop with SIGINT/SIGTERM: the server drains in-flight requests, closes
// the store, and (with -file, persistent mode) checkpoints.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pmwcas"
	"pmwcas/internal/metrics"
	"pmwcas/internal/server"
)

func main() {
	addr := flag.String("addr", ":7171", "listen address")
	file := flag.String("file", "", "store snapshot path: loaded at start if present, checkpointed on shutdown (persistent mode)")
	index := flag.String("index", "skiplist", "index the blob layer keeps keys in: skiplist, bwtree, or hash (no SCAN)")
	mode := flag.String("mode", "persistent", "persistence mode: persistent or volatile")
	sizeMiB := flag.Uint64("size", 256, "store size in MiB")
	shards := flag.Int("shards", 1, "independent store shards; keys are hash-partitioned, SCAN merges shards in key order")
	maxConns := flag.Int("maxconns", 64, "concurrent connection cap (also the store-handle pool size)")
	descriptors := flag.Int("descriptors", 4096, "PMwCAS descriptor pool size (per shard)")
	readTimeout := flag.Duration("readtimeout", 0, "per-connection idle timeout (0 = none)")
	drainGrace := flag.Duration("draingrace", 250*time.Millisecond, "shutdown drain window per connection")
	debugAddr := flag.String("debug-addr", "", "optional HTTP listener for /metrics, /metrics.txt, /trace, and /debug/pprof (keep on loopback)")
	metricsOn := flag.Bool("metrics", true, "record latency histograms and counters (DRAM only)")
	traceOn := flag.Bool("trace", true, "record PMwCAS descriptor lifecycle events into the trace ring (needs -metrics)")
	flag.Parse()
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	logger := log.New(os.Stderr, "pmwcas-server: ", log.LstdFlags)
	metrics.Enable(*metricsOn)
	metrics.TraceEnable(*traceOn)

	cfg := pmwcas.Config{
		Size:        *sizeMiB << 20,
		Shards:      *shards,
		Descriptors: *descriptors,
	}
	switch *mode {
	case "persistent":
		cfg.Mode = pmwcas.Persistent
	case "volatile":
		cfg.Mode = pmwcas.Volatile
	default:
		logger.Fatalf("unknown -mode %q (want persistent or volatile)", *mode)
	}

	store, restored, err := openStore(cfg, *file, set)
	if err != nil {
		logger.Fatal(err)
	}
	if restored {
		logger.Printf("restored store from %s (%d MiB, %d shards, %d descriptors per shard, %s)", *file,
			store.Device().Size()>>20, store.ShardCount(), store.Stats().DescriptorsCap/store.ShardCount(), *mode)
	} else {
		logger.Printf("created fresh store (%d MiB, %s)", *sizeMiB, *mode)
	}

	srv, err := server.New(server.Config{
		Store:       store,
		Index:       server.Index(*index),
		MaxConns:    *maxConns,
		ReadTimeout: *readTimeout,
		DrainGrace:  *drainGrace,
		Logf:        logger.Printf,
	})
	if err != nil {
		logger.Fatal(err)
	}

	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: metrics.DebugHandler()}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Printf("debug listener: %v", err)
			}
		}()
		defer dbg.Close()
		logger.Printf("debug endpoints on http://%s/{metrics,metrics.txt,trace,debug/pprof}", *debugAddr)
	}

	// Serve until a signal arrives, then drain, close, checkpoint.
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	logger.Printf("serving %s index on %s (max %d connections)", *index, *addr, *maxConns)

	select {
	case sig := <-sigc:
		logger.Printf("%s: draining...", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
		if err := <-errc; err != nil {
			logger.Printf("serve: %v", err)
		}
	case err := <-errc:
		if err != nil {
			logger.Fatalf("serve: %v", err)
		}
	}

	logger.Printf("served %d requests (%d connections rejected at cap)", srv.Served(), srv.Rejected())
	if err := store.Close(); err != nil {
		logger.Fatalf("close: %v", err)
	}
	if *file != "" && cfg.Mode == pmwcas.Persistent {
		if err := store.Checkpoint(*file); err != nil {
			logger.Fatalf("checkpoint: %v", err)
		}
		logger.Printf("checkpointed store to %s", *file)
	}
}

// openStore restores from a snapshot when one exists, otherwise creates
// a fresh store. A restore adopts the geometry the image records: of
// cfg's Size, Shards and Descriptors it keeps only those whose flag is in
// set, and each of those must match the image.
func openStore(cfg pmwcas.Config, file string, set map[string]bool) (*pmwcas.Store, bool, error) {
	if file == "" {
		s, err := pmwcas.Create(cfg)
		return s, false, err
	}
	if cfg.Mode != pmwcas.Persistent {
		return nil, false, fmt.Errorf("-file requires -mode persistent (a volatile store has nothing durable to snapshot)")
	}
	if _, err := os.Stat(file); err != nil {
		if os.IsNotExist(err) {
			s, cerr := pmwcas.Create(cfg)
			return s, false, cerr
		}
		return nil, false, err
	}
	if !set["size"] {
		cfg.Size = 0
	}
	if !set["shards"] {
		cfg.Shards = 0
	}
	if !set["descriptors"] {
		cfg.Descriptors = 0
	}
	s, err := pmwcas.OpenFile(file, cfg)
	if err != nil {
		return nil, false, fmt.Errorf("open %s: %w", file, err)
	}
	return s, true, nil
}
