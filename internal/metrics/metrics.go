// Package metrics is the store's lock-free observability substrate: a
// process-wide registry of striped (sharded-by-lane) counters, gauges,
// and log₂-bucketed latency histograms, plus a bounded lock-free trace
// ring for PMwCAS descriptor lifecycles (trace.go) and a debug HTTP
// surface (http.go).
//
// Everything here lives in DRAM only. Metrics never touch NVM words —
// the instrumented layers observe durations and increment counters, and
// nothing in this package imports internal/nvram — so recording can
// never perturb persist ordering, recovery, or the crash sweep's
// oracles. Losing the metrics at a crash is correct behaviour: they
// describe the run, not the data.
//
// Hot-path cost model: every instrument is gated on one atomic load
// (On) and records with a single uncontended atomic add on a lane the
// calling goroutine was assigned at handle creation (NextStripe).
// Stripes play the role the paper's per-thread descriptor partitions
// play for the pool: goroutine-affine lanes that make the common case
// contention-free while snapshots merge all lanes. The budget is <5% on
// the PMwCAS fast path with metrics enabled (internal/core's
// BenchmarkPMwCASMetricsOverhead pins it).
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stripes is the number of contention lanes every counter and histogram
// is sharded across. A power of two so lane assignment is a mask.
const Stripes = 16

const stripeMask = Stripes - 1

// enabled gates all recording. Default on: the acceptance budget for
// the substrate is "compiled in and cheap", not "compiled out".
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enable turns recording on or off process-wide. Counters stop moving
// when disabled; gauges keep moving so Add/Done pairs stay balanced.
func Enable(on bool) { enabled.Store(on) }

// On reports whether recording is enabled. Instrumented code uses it to
// skip timestamp acquisition, the only per-op cost that is not a single
// atomic add.
func On() bool { return enabled.Load() }

// A Stripe is one goroutine's lane assignment. Handles (core, alloc,
// index, server connection) each take one at creation and pass it to
// every Add/Observe, so hot-path recording is contention-free. The zero
// value is lane 0 — valid, just shared.
type Stripe struct{ i uint32 }

var stripeSeq atomic.Uint32

// NextStripe assigns the next lane round-robin. Call once per
// long-lived goroutine context (handle, connection), not per operation.
func NextStripe() Stripe { return Stripe{stripeSeq.Add(1) & stripeMask} }

// StripeAt derives a lane from an index (for example a descriptor
// index), for call sites that have no goroutine-affine handle in hand
// but still want adds spread across lanes.
func StripeAt(i int) Stripe { return Stripe{uint32(i) & stripeMask} }

// Index returns the lane number (for trace-event actor IDs).
func (s Stripe) Index() uint32 { return s.i }

// cell is one lane of a counter, padded to a cache line so lanes never
// false-share.
type cell struct {
	n atomic.Uint64
	_ [7]uint64
}

// A Counter is a monotonic striped counter.
type Counter struct {
	name string
	v    [Stripes]cell
}

// Add adds n on the caller's lane. No-op while disabled.
//
//pmwcas:hotpath — incremented on every PMwCAS install and read; a heap allocation here taxes every operation
func (c *Counter) Add(s Stripe, n uint64) {
	if enabled.Load() {
		c.v[s.i].n.Add(n)
	}
}

// Inc is Add(s, 1).
func (c *Counter) Inc(s Stripe) { c.Add(s, 1) }

// Value sums all lanes. Approximate under concurrent adds (lanes are
// read one by one), exact at quiescence.
func (c *Counter) Value() uint64 {
	var t uint64
	for i := range c.v {
		t += c.v[i].n.Load()
	}
	return t
}

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// A Gauge is a single signed level (active connections, leased
// backends). Not gated on Enable: inc/dec pairs must stay balanced
// across a toggle.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Add moves the level by d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// HistBuckets is the number of log₂ buckets. Bucket 0 holds exact
// zeros; bucket b≥1 holds values in [2^(b-1), 2^b). 48 buckets cover
// [1ns, ~78h) — everything a latency histogram will ever see.
const HistBuckets = 48

// hrow is one lane of a histogram. The bucket array already spans
// several cache lines; sum and max share the row's tail line.
type hrow struct {
	b   [HistBuckets]atomic.Uint64
	sum atomic.Uint64
	max atomic.Uint64
	_   [6]uint64
}

// A Histogram is a striped log₂-bucketed distribution. Values are
// non-negative int64s — nanoseconds for latencies, plain counts for
// depth/step distributions.
type Histogram struct {
	name string
	rows [Stripes]hrow
}

// bucketOf maps a value to its bucket.
func bucketOf(v uint64) int {
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one value on the caller's lane. No-op while disabled.
//
//pmwcas:hotpath — records per-operation latencies on the install and read paths
func (h *Histogram) Observe(s Stripe, v int64) {
	if !enabled.Load() {
		return
	}
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	r := &h.rows[s.i]
	r.b[bucketOf(u)].Add(1)
	r.sum.Add(u)
	for {
		cur := r.max.Load()
		if u <= cur || r.max.CompareAndSwap(cur, u) {
			return
		}
	}
}

// ObserveSince records the nanoseconds elapsed since t0.
func (h *Histogram) ObserveSince(s Stripe, t0 time.Time) {
	h.Observe(s, time.Since(t0).Nanoseconds())
}

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

// A HistSnapshot is a merged, immutable copy of a histogram. Snapshots
// from different histograms (or processes, or shards) merge bucket-wise
// — the property that lets a sharded substrate report one distribution.
type HistSnapshot struct {
	Name    string              `json:"name"`
	Count   uint64              `json:"count"`
	Sum     uint64              `json:"sum"`
	Max     uint64              `json:"max"`
	Buckets [HistBuckets]uint64 `json:"-"`
}

// Snapshot merges all lanes. Approximate under concurrent observes,
// internally consistent enough for percentiles.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Name: h.name}
	for i := range h.rows {
		r := &h.rows[i]
		for b := 0; b < HistBuckets; b++ {
			n := r.b[b].Load()
			s.Buckets[b] += n
			s.Count += n
		}
		s.Sum += r.sum.Load()
		if m := r.max.Load(); m > s.Max {
			s.Max = m
		}
	}
	return s
}

// Merge folds o into s bucket-wise.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	for b := 0; b < HistBuckets; b++ {
		s.Buckets[b] += o.Buckets[b]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Quantile returns the q-th quantile (q in [0,1]) with linear
// interpolation inside the winning bucket. The top of the distribution
// is clamped to the exact tracked Max, so Quantile(1) == Max.
func (s *HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var seen float64
	for b := 0; b < HistBuckets; b++ {
		n := float64(s.Buckets[b])
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			if b == 0 {
				return 0
			}
			lo := uint64(1) << (b - 1)
			hi := uint64(1) << b
			frac := (rank - seen) / n
			v := float64(lo) + frac*float64(hi-lo)
			u := uint64(v)
			if u > s.Max {
				u = s.Max
			}
			return u
		}
		seen += n
	}
	return s.Max
}

// Mean returns the arithmetic mean.
func (s *HistSnapshot) Mean() uint64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

// A Registry holds named instruments. Registration happens at package
// init of the instrumented layers; lookups after that are lock-free
// (instruments are reached through the returned pointers, never by
// name on a hot path).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry (tests use private ones; the
// instrumented layers use Default).
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var def = NewRegistry()

// Default returns the process-wide registry every layer registers into.
func Default() *Registry { return def }

// Counter registers (or returns the existing) counter with this name.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge registers (or returns the existing) gauge with this name.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram registers (or returns the existing) histogram with this
// name.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	r.hists[name] = h
	return h
}

// Package-level helpers registering into the default registry.

// NewCounter registers a counter in the default registry.
func NewCounter(name string) *Counter { return def.Counter(name) }

// NewGauge registers a gauge in the default registry.
func NewGauge(name string) *Gauge { return def.Gauge(name) }

// NewHistogram registers a histogram in the default registry.
func NewHistogram(name string) *Histogram { return def.Histogram(name) }

// HistSummary is the rendered percentile view of one histogram.
// Quantities are in the histogram's native unit (nanoseconds for
// latencies).
type HistSummary struct {
	Count uint64 `json:"count"`
	Mean  uint64 `json:"mean"`
	P50   uint64 `json:"p50"`
	P95   uint64 `json:"p95"`
	P99   uint64 `json:"p99"`
	Max   uint64 `json:"max"`
}

// Summary renders the snapshot's percentile view.
func (s *HistSnapshot) Summary() HistSummary {
	return HistSummary{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
		Max:   s.Max,
	}
}

// A Snapshot is one merged view of a registry, renderable as text (the
// METRICS wire payload) or JSON (the -debug-addr surface).
type Snapshot struct {
	Counters   map[string]uint64      `json:"counters"`
	Gauges     map[string]int64       `json:"gauges"`
	Histograms map[string]HistSummary `json:"histograms"`
}

// Snapshot merges every instrument's lanes into one view.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistSummary, len(hists)),
	}
	for _, c := range counters {
		s.Counters[c.name] = c.Value()
	}
	for _, g := range gauges {
		s.Gauges[g.name] = g.Value()
	}
	for _, h := range hists {
		snap := h.Snapshot()
		s.Histograms[h.name] = snap.Summary()
	}
	return s
}

// Format renders the snapshot as the METRICS wire payload: one
// instrument per line, sorted by name, trivially parseable.
//
//	counter: "name value"
//	gauge:   "name value"
//	hist:    "name count=N mean=M p50=A p95=B p99=C max=D"
func (s Snapshot) Format() string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	var b []byte
	for _, n := range names {
		if v, ok := s.Counters[n]; ok {
			b = fmt.Appendf(b, "%s %d\n", n, v)
		} else if v, ok := s.Gauges[n]; ok {
			b = fmt.Appendf(b, "%s %d\n", n, v)
		} else if h, ok := s.Histograms[n]; ok {
			b = fmt.Appendf(b, "%s count=%d mean=%d p50=%d p95=%d p99=%d max=%d\n",
				n, h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max)
		}
	}
	return string(b)
}
