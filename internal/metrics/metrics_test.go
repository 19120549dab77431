package metrics

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterStriping(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NextStripe()
			for i := 0; i < per; i++ {
				c.Inc(s)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
	if r.Counter("c") != c {
		t.Fatal("re-registering a name must return the same counter")
	}
}

func TestEnableGatesRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("gated")
	h := r.Histogram("gated_h")
	s := StripeAt(3)
	Enable(false)
	c.Inc(s)
	h.Observe(s, 100)
	Enable(true)
	defer Enable(true)
	if c.Value() != 0 {
		t.Fatalf("counter moved while disabled: %d", c.Value())
	}
	if h.Snapshot().Count != 0 {
		t.Fatalf("histogram moved while disabled")
	}
	c.Inc(s)
	h.Observe(s, 100)
	if c.Value() != 1 || h.Snapshot().Count != 1 {
		t.Fatal("recording did not resume after Enable(true)")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	s := StripeAt(0)
	// 100 values: 1..100. Exact values land in log2 buckets; quantiles
	// must be monotone, within the right bucket, and max exact.
	for v := int64(1); v <= 100; v++ {
		h.Observe(StripeAt(int(v)), v) // spread across lanes
	}
	snap := h.Snapshot()
	if snap.Count != 100 {
		t.Fatalf("count = %d, want 100", snap.Count)
	}
	if snap.Max != 100 {
		t.Fatalf("max = %d, want 100", snap.Max)
	}
	if snap.Sum != 5050 {
		t.Fatalf("sum = %d, want 5050", snap.Sum)
	}
	p50, p95, p99 := snap.Quantile(0.50), snap.Quantile(0.95), snap.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99 && p99 <= snap.Max) {
		t.Fatalf("quantiles not monotone: p50=%d p95=%d p99=%d max=%d", p50, p95, p99, snap.Max)
	}
	// p50 of 1..100 is ~50; the log2 bucket [32,64) must contain it.
	if p50 < 32 || p50 >= 64 {
		t.Fatalf("p50 = %d, want within [32,64)", p50)
	}
	// p99 must be in the top bucket [64,128), clamped to max.
	if p99 < 64 || p99 > 100 {
		t.Fatalf("p99 = %d, want within [64,100]", p99)
	}
	if q := snap.Quantile(1); q != snap.Max {
		t.Fatalf("Quantile(1) = %d, want max %d", q, snap.Max)
	}
	if h.Observe(s, -5); h.Snapshot().Buckets[0] != 1 {
		t.Fatal("negative values must clamp into the zero bucket")
	}
}

func TestHistogramMerge(t *testing.T) {
	r := NewRegistry()
	a, b := r.Histogram("a"), r.Histogram("b")
	s := StripeAt(0)
	for v := int64(1); v <= 50; v++ {
		a.Observe(s, v)
	}
	for v := int64(51); v <= 100; v++ {
		b.Observe(s, v)
	}
	whole := r.Histogram("whole")
	for v := int64(1); v <= 100; v++ {
		whole.Observe(s, v)
	}
	merged := a.Snapshot()
	merged.Merge(b.Snapshot())
	want := whole.Snapshot()
	if merged.Count != want.Count || merged.Sum != want.Sum ||
		merged.Max != want.Max || merged.Buckets != want.Buckets {
		t.Fatalf("merged snapshot differs from whole: %+v vs %+v", merged, want)
	}
}

func TestSnapshotFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_counter").Add(StripeAt(0), 7)
	r.Gauge("aa_gauge").Add(3)
	h := r.Histogram("mm_hist")
	for v := int64(1); v <= 100; v++ {
		h.Observe(StripeAt(0), v)
	}
	text := r.Snapshot().Format()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d:\n%s", len(lines), text)
	}
	// Sorted by name: aa_gauge, mm_hist, zz_counter.
	if !strings.HasPrefix(lines[0], "aa_gauge 3") ||
		!strings.HasPrefix(lines[1], "mm_hist count=100 ") ||
		!strings.HasPrefix(lines[2], "zz_counter 7") {
		t.Fatalf("bad format:\n%s", text)
	}
}

func TestGaugeIgnoresEnable(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("active")
	g.Add(2)
	Enable(false)
	g.Add(-1)
	Enable(true)
	if g.Value() != 1 {
		t.Fatalf("gauge = %d, want 1 (gauges must stay balanced across toggles)", g.Value())
	}
}

func TestDebugHandler(t *testing.T) {
	NewCounter("dbg_test_counter").Add(StripeAt(0), 1)
	srv := httptest.NewServer(DebugHandler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, body)
	}
	if _, ok := snap.Counters["dbg_test_counter"]; !ok {
		t.Fatalf("/metrics missing registered counter: %s", body)
	}

	resp, err = srv.Client().Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if _, err := ParseTrace(body); err != nil {
		t.Fatalf("/trace is not a trace dump: %v\n%s", err, body)
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/pprof/cmdline: status %d", resp.StatusCode)
	}
}
