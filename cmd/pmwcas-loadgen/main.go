// Command pmwcas-loadgen drives a running pmwcas-server with N client
// connections issuing a mixed Get/Put/Delete/Scan workload, and reports
// throughput and latency percentiles.
//
// Keys are drawn with the harness key distributions (uniform, zipf,
// sequential) and rendered as 7-hex-digit strings so they fit the
// store's order-preserving key codec.
//
// Example (matches the repo's acceptance run):
//
//	pmwcas-loadgen -addr :7171 -conns 16 -ops 2000 -dist uniform \
//	               -gets 50 -puts 40 -dels 0 -scans 10
//
// Exits non-zero if any operation fails.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"pmwcas/internal/harness"
	"pmwcas/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7171", "server address")
	conns := flag.Int("conns", 16, "client connections (one worker goroutine each)")
	ops := flag.Int("ops", 2000, "operations per connection")
	keys := flag.Uint64("keys", 65536, "key-space size")
	dist := flag.String("dist", "uniform", "key distribution: uniform, zipf, or sequential")
	gets := flag.Int("gets", 50, "percent GET")
	puts := flag.Int("puts", 40, "percent PUT")
	dels := flag.Int("dels", 0, "percent DELETE")
	scans := flag.Int("scans", 10, "percent SCAN")
	scanLimit := flag.Int("scanlimit", 50, "entries per SCAN")
	valSize := flag.Int("valsize", 64, "value size in bytes")
	pipeline := flag.Int("pipeline", 1, "requests in flight per connection (1 = synchronous)")
	preload := flag.Int("preload", 0, "keys to PUT sequentially before the timed run")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request I/O timeout")
	seed := flag.Int64("seed", 1, "base RNG seed")
	showStats := flag.Bool("stats", false, "print server STATS after the run")
	flag.Parse()

	if *gets+*puts+*dels+*scans != 100 {
		fatalf("op mix must sum to 100 (got gets=%d puts=%d dels=%d scans=%d)", *gets, *puts, *dels, *scans)
	}
	if *keys == 0 || *keys > 1<<28 {
		fatalf("-keys must be in [1, 2^28] (keys are 7 hex digits)")
	}
	if *pipeline < 1 {
		*pipeline = 1
	}
	d, err := parseDist(*dist)
	if err != nil {
		fatalf("%v", err)
	}

	if *preload > 0 {
		if err := doPreload(*addr, *conns, *preload, *valSize, *timeout); err != nil {
			fatalf("preload: %v", err)
		}
	}

	workers := make([]*worker, *conns)
	for i := range workers {
		w := &worker{
			id:        i,
			addr:      *addr,
			ops:       *ops,
			scanLimit: *scanLimit,
			pipeline:  *pipeline,
			timeout:   *timeout,
			val:       makeValue(*valSize, i),
			keygen:    harness.NewKeyGen(d, *keys, *seed+int64(i)),
			mix:       rand.New(rand.NewSource(*seed ^ int64(i)<<32)),
			cut:       [3]int{*gets, *gets + *puts, *gets + *puts + *dels},
		}
		workers[i] = w
	}

	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lats []time.Duration
	total, errs, notFound, scanned := 0, 0, 0, 0
	for _, w := range workers {
		total += w.done
		errs += w.errs
		notFound += w.notFound
		scanned += w.scanned
		lats = append(lats, w.lats...)
		if w.err != nil {
			fmt.Fprintf(os.Stderr, "pmwcas-loadgen: conn %d: %v\n", w.id, w.err)
		}
	}

	fmt.Printf("pmwcas-loadgen: %d conns x %d ops = %d ops in %v (%s), %d errors\n",
		*conns, *ops, total, elapsed.Round(time.Millisecond),
		harness.Throughput(float64(total)/elapsed.Seconds()), errs)
	fmt.Printf("mix: get %d%% put %d%% del %d%% scan %d%% (limit %d) | keys %d %s | valsize %d | pipeline %d\n",
		*gets, *puts, *dels, *scans, *scanLimit, *keys, d, *valSize, *pipeline)
	fmt.Printf("misses: %d not-found | scanned: %d entries\n", notFound, scanned)
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		unit := "per op"
		if *pipeline > 1 {
			unit = fmt.Sprintf("per %d-deep batch", *pipeline)
		}
		fmt.Printf("latency (%s): p50=%v p90=%v p99=%v max=%v\n", unit,
			pct(lats, 50), pct(lats, 90), pct(lats, 99), lats[len(lats)-1])
	}
	if *showStats {
		printServerStats(*addr, *timeout)
	}
	if errs > 0 {
		os.Exit(1)
	}
}

// worker is one connection's state; run issues its share of the load.
type worker struct {
	id        int
	addr      string
	ops       int
	scanLimit int
	pipeline  int
	timeout   time.Duration
	val       []byte
	keygen    *harness.KeyGen
	mix       *rand.Rand
	cut       [3]int // cumulative get/put/del percent cuts

	done     int
	errs     int
	notFound int
	scanned  int
	lats     []time.Duration
	err      error
}

func (w *worker) run() {
	c, err := wire.Dial(w.addr)
	if err != nil {
		w.err = err
		w.errs += w.ops
		return
	}
	defer c.Close()
	c.Timeout = w.timeout

	sentOps := make([]wire.Op, 0, w.pipeline)
	for sent := 0; sent < w.ops; {
		batch := min(w.pipeline, w.ops-sent)
		begin := time.Now()
		sentOps = sentOps[:0]
		for i := 0; i < batch; i++ {
			req := w.nextRequest()
			sentOps = append(sentOps, req.Op)
			if err := c.Send(req); err != nil {
				w.fail(err, w.ops-sent)
				return
			}
		}
		if err := c.Flush(); err != nil {
			w.fail(err, w.ops-sent)
			return
		}
		for i := 0; i < batch; i++ {
			resp, err := c.Recv()
			if err != nil {
				w.fail(err, w.ops-sent)
				return
			}
			sent++
			// Responses arrive in request order within a batch.
			w.account(sentOps[i], &resp)
		}
		w.lats = append(w.lats, time.Since(begin))
	}
}

// account tallies the response to one request of kind op. Entries count
// as scanned only on a SCAN: a GET hit carries its value in an entry too.
func (w *worker) account(op wire.Op, resp *wire.Response) {
	w.done++
	switch resp.Status {
	case wire.StatusOK:
		if op == wire.OpScan {
			w.scanned += len(resp.Entries)
		}
	case wire.StatusNotFound:
		w.notFound++ // an expected outcome, not a failure
	default:
		w.errs++
		if w.err == nil {
			w.err = fmt.Errorf("%s %s", resp.Status, resp.Msg)
		}
	}
}

// fail records a transport error covering the remaining unanswered ops.
// The first error is kept: it names the cause (e.g. a BUSY rejection),
// later ones are its fallout.
func (w *worker) fail(err error, remaining int) {
	if w.err == nil {
		w.err = err
	}
	w.errs += remaining
}

// nextRequest draws one operation from the mix.
func (w *worker) nextRequest() *wire.Request {
	key := formatKey(w.keygen.Next())
	switch p := w.mix.Intn(100); {
	case p < w.cut[0]:
		return &wire.Request{Op: wire.OpGet, Key: key}
	case p < w.cut[1]:
		return &wire.Request{Op: wire.OpPut, Key: key, Value: w.val}
	case p < w.cut[2]:
		return &wire.Request{Op: wire.OpDelete, Key: key}
	default:
		return &wire.Request{Op: wire.OpScan, Key: key, Limit: uint32(w.scanLimit)}
	}
}

// formatKey renders a harness key as 7 hex digits — within the key
// codec's 7-byte limit and order-preserving for range scans.
func formatKey(k uint64) []byte {
	return fmt.Appendf(nil, "%07x", k)
}

func makeValue(size, worker int) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = byte('a' + (worker+i)%26)
	}
	return v
}

// doPreload seeds keys 1..n round-robin across conns connections so the
// timed run hits a populated store.
func doPreload(addr string, conns, n, valSize int, timeout time.Duration) error {
	var wg sync.WaitGroup
	errc := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := wire.Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			cl.Timeout = timeout
			val := makeValue(valSize, c)
			for k := c + 1; k <= n; k += conns {
				if err := cl.Put(formatKey(uint64(k)), val); err != nil {
					errc <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	return <-errc
}

func printServerStats(addr string, timeout time.Duration) {
	c, err := wire.Dial(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmwcas-loadgen: stats: %v\n", err)
		return
	}
	defer c.Close()
	c.Timeout = timeout
	st, err := c.Stats()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmwcas-loadgen: stats: %v\n", err)
		return
	}
	fmt.Print("--- server stats ---\n", st)
}

func parseDist(s string) (harness.Distribution, error) {
	switch s {
	case "uniform":
		return harness.Uniform, nil
	case "zipf":
		return harness.Zipf, nil
	case "sequential":
		return harness.Sequential, nil
	}
	return 0, fmt.Errorf("unknown -dist %q (want uniform, zipf, or sequential)", s)
}

// pct returns the p-th percentile of sorted latencies.
func pct(sorted []time.Duration, p int) time.Duration {
	idx := (len(sorted) - 1) * p / 100
	return sorted[idx]
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pmwcas-loadgen: "+format+"\n", args...)
	os.Exit(1)
}
