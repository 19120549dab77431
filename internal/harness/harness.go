// Package harness generates the workloads and parameter sweeps that
// regenerate the paper's evaluation (DESIGN.md experiments E1-E9): key
// distributions, operation mixes, multi-threaded runners for the index
// variants, and the PMwCAS/HTM microbenchmarks.
package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pmwcas/internal/index"
	"pmwcas/internal/nvram"
)

// Distribution selects how keys are drawn.
type Distribution int

const (
	// Uniform draws keys uniformly from the key space.
	Uniform Distribution = iota
	// Zipf draws keys with a Zipfian skew (theta 0.99, YCSB-style).
	Zipf
	// Sequential draws monotonically increasing keys (append pattern).
	Sequential
)

func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipf:
		return "zipf"
	case Sequential:
		return "sequential"
	}
	return "?"
}

// KeyGen produces keys for one worker. Not safe for concurrent use.
type KeyGen struct {
	dist Distribution
	rng  *rand.Rand
	zipf *rand.Zipf
	next uint64
	span uint64
	base uint64
}

// NewKeyGen builds a generator over [1, span]. For Sequential, workers
// should use distinct seeds so their ranges interleave via stride.
func NewKeyGen(dist Distribution, span uint64, seed int64) *KeyGen {
	g := &KeyGen{dist: dist, rng: rand.New(rand.NewSource(seed)), span: span, base: uint64(seed)}
	if dist == Zipf {
		g.zipf = rand.NewZipf(g.rng, 1.3, 1.0, span-1)
	}
	return g
}

// Next returns the next key in [1, span].
func (g *KeyGen) Next() uint64 {
	switch g.dist {
	case Zipf:
		return g.zipf.Uint64() + 1
	case Sequential:
		g.next++
		return (g.next*16+g.base)%g.span + 1
	default:
		return uint64(g.rng.Int63n(int64(g.span))) + 1
	}
}

// Mix is an operation mix in percent; the fields must sum to 100.
type Mix struct {
	Reads   int
	Inserts int
	Updates int
	Deletes int
	Scans   int // short range scans (100 keys)
}

func (m Mix) total() int { return m.Reads + m.Inserts + m.Updates + m.Deletes + m.Scans }

// Common mixes used across the evaluation.
var (
	// ReadHeavy is the 90/10 lookup/update mix.
	ReadHeavy = Mix{Reads: 90, Updates: 10}
	// UpdateHeavy is the 50/50 mix.
	UpdateHeavy = Mix{Reads: 50, Updates: 50}
	// InsertDelete churns structure: half inserts, half deletes.
	InsertDelete = Mix{Inserts: 50, Deletes: 50}
	// ReadOnly is pure lookups.
	ReadOnly = Mix{Reads: 100}
	// ScanHeavy exercises range scans.
	ScanHeavy = Mix{Reads: 50, Scans: 50}
)

// IndexOps is the per-thread surface every index variant exposes: the
// word-index contract itself, which every index handle satisfies.
type IndexOps = index.Handle

// Factory mints per-thread handles over one shared index (any index: New
// is typically Store.OpenIndex's result, or a closure over NewHandle).
type Factory struct {
	Label string
	New   func(seed int64) IndexOps
}

// isExpected reports whether an operation error is a legitimate workload
// outcome (key already there / not there) rather than a failure.
func isExpected(err error) bool {
	return err == nil || errors.Is(err, index.ErrKeyExists) || errors.Is(err, index.ErrNotFound)
}

// Workload describes one index experiment.
type Workload struct {
	Threads  int
	OpsPer   int // operations per thread
	KeySpace uint64
	Dist     Distribution
	Mix      Mix
	Preload  int // keys inserted (sequentially spread) before timing
	ScanLen  uint64
}

// Result is one measured cell.
type Result struct {
	Variant      string
	Threads      int
	Ops          int
	Elapsed      time.Duration
	OpsPerSec    float64
	Flushes      uint64 // device flushes during the timed region (if sampled)
	FlushesPer   float64
	DeviceOpsPer float64 // loads, stores, CASes, flushes and fences per op
}

// Run executes the workload and returns aggregate throughput. sample,
// if non-nil, is read before and after the timed region (typically the
// device's Stats method), for the region's flushes and device ops.
func Run(f Factory, w Workload, sample func() nvram.Stats) (Result, error) {
	if w.Mix.total() != 100 {
		return Result{}, fmt.Errorf("harness: mix sums to %d, want 100", w.Mix.total())
	}
	if w.Threads <= 0 || w.OpsPer <= 0 || w.KeySpace == 0 {
		return Result{}, fmt.Errorf("harness: bad workload %+v", w)
	}
	if w.ScanLen == 0 {
		w.ScanLen = 100
	}

	// Distinct nonce per Run call: repeated runs over the same index (for
	// median-of-N measurement) must not replay identical key/value
	// streams, or every write in the repeat becomes a same-value no-op.
	nonce := runNonce.Add(1) << 20

	// Preload with evenly spread keys so lookups hit.
	if w.Preload > 0 {
		ops := f.New(nonce + 0x5eed)
		stride := w.KeySpace / uint64(w.Preload)
		if stride == 0 {
			stride = 1
		}
		for i := 0; i < w.Preload; i++ {
			k := (uint64(i)*stride)%w.KeySpace + 1
			if err := ops.Insert(k, k); err != nil && !isExpected(err) {
				return Result{}, fmt.Errorf("harness: preload: %w", err)
			}
		}
	}

	var before nvram.Stats
	if sample != nil {
		before = sample()
	}
	var wg sync.WaitGroup
	errs := make([]error, w.Threads)
	start := time.Now()
	for t := 0; t < w.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			errs[t] = worker(f.New(nonce+int64(t)+1), w, nonce+int64(t))
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}

	total := w.Threads * w.OpsPer
	r := Result{
		Variant:   f.Label,
		Threads:   w.Threads,
		Ops:       total,
		Elapsed:   elapsed,
		OpsPerSec: float64(total) / elapsed.Seconds(),
	}
	if sample != nil {
		after := sample()
		ops := func(s nvram.Stats) uint64 { return s.Loads + s.Stores + s.CASes + s.Flushes + s.Fences }
		r.Flushes = after.Flushes - before.Flushes
		r.FlushesPer = float64(r.Flushes) / float64(total)
		r.DeviceOpsPer = float64(ops(after)-ops(before)) / float64(total)
	}
	return r, nil
}

// runNonce differentiates repeated Run invocations.
var runNonce atomic.Int64

func worker(ops IndexOps, w Workload, seed int64) error {
	keys := NewKeyGen(w.Dist, w.KeySpace, seed*7919+1)
	rng := rand.New(rand.NewSource(seed*104729 + 7))
	for i := 0; i < w.OpsPer; i++ {
		k := keys.Next()
		p := rng.Intn(100)
		// Written values vary per operation: a repeated update to the same
		// key must be a real write, not a same-value no-op the index can
		// short-circuit.
		v := uint64(rng.Int63()) & 0xffffff
		var err error
		switch {
		case p < w.Mix.Reads:
			_, err = ops.Get(k)
		case p < w.Mix.Reads+w.Mix.Inserts:
			err = ops.Insert(k, v)
		case p < w.Mix.Reads+w.Mix.Inserts+w.Mix.Updates:
			err = ops.Update(k, v)
			if errors.Is(err, index.ErrNotFound) {
				err = ops.Insert(k, v) // upsert semantics for the mix
			}
		case p < w.Mix.Reads+w.Mix.Inserts+w.Mix.Updates+w.Mix.Deletes:
			err = ops.Delete(k)
		default:
			to := k + w.ScanLen
			err = ops.Scan(k, to, func(index.Entry) bool { return true })
		}
		if err != nil && !isExpected(err) {
			return fmt.Errorf("harness: op %d (key %d): %w", i, k, err)
		}
	}
	return nil
}
