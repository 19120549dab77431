package core

import (
	"os"
	"testing"

	"pmwcas/internal/metrics"
)

// overheadArms are BenchmarkPMwCASMetricsOverhead's settings: recording
// off (the baseline), recording on, and recording on with the lifecycle
// trace ring on, as pmwcas-server ships.
var overheadArms = []struct {
	name           string
	metrics, trace bool
}{
	{"metrics=off", false, false},
	{"metrics=on", true, false},
	{"trace=on", true, true},
}

// setArm applies one arm's gates; the returned func restores the
// library defaults (metrics on, trace off).
func setArm(metricsOn, traceOn bool) func() {
	metrics.Enable(metricsOn)
	metrics.TraceEnable(traceOn)
	return func() {
		metrics.Enable(true)
		metrics.TraceEnable(false)
	}
}

// BenchmarkPMwCASMetricsOverhead pins the cost of the metrics substrate
// on the PMwCAS fast path: the same uncontended 4-word persistent
// Execute loop as BenchmarkPMwCAS4Words, once per overheadArms entry.
// The acceptance budget is <5% over metrics=off for each of the other
// arms — compare the sub-benchmark ns/op directly, or run
// TestMetricsFastPathOverheadBudget with PMWCAS_PERF_ASSERT=1 to have
// the comparison asserted.
func BenchmarkPMwCASMetricsOverhead(b *testing.B) {
	for _, arm := range overheadArms {
		b.Run(arm.name, func(b *testing.B) {
			defer setArm(arm.metrics, arm.trace)()
			benchFastPath(b)
		})
	}
}

func benchFastPath(b *testing.B) {
	e := newEnv(b, Persistent, false)
	addrs := e.initWords(0, 0, 0, 0)
	h := e.pool.NewHandle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := h.AllocateDescriptor(0)
		if err != nil {
			b.Fatal(err)
		}
		v := uint64(i)
		for _, a := range addrs {
			d.AddWord(a, v, v+1)
		}
		if ok, _ := d.Execute(); !ok {
			b.Fatal("uncontended Execute failed")
		}
	}
}

// TestMetricsFastPathOverheadBudget asserts the <5% budget for the
// metrics=on and trace=on arms by running every arm and comparing ns/op
// with metrics=off. Timing-sensitive, so it is opt-in: enable with
// PMWCAS_PERF_ASSERT=1 on a quiet machine.
func TestMetricsFastPathOverheadBudget(t *testing.T) {
	if os.Getenv("PMWCAS_PERF_ASSERT") == "" {
		t.Skip("set PMWCAS_PERF_ASSERT=1 to assert the overhead budget (timing-sensitive)")
	}
	ns := make([]float64, len(overheadArms))
	run := func() {
		for i, arm := range overheadArms {
			restore := setArm(arm.metrics, arm.trace)
			ns[i] = float64(testing.Benchmark(benchFastPath).NsPerOp())
			restore()
		}
	}
	// A warmup pass of every arm so CPU frequency state is even.
	run()
	run()
	off := ns[0]
	for i, arm := range overheadArms[1:] {
		on := ns[i+1]
		overhead := on/off - 1
		t.Logf("fast path: metrics=off %.0f ns/op, %s %.0f ns/op, overhead %.1f%%", off, arm.name, on, overhead*100)
		if overhead > 0.05 {
			t.Errorf("%s overhead %.1f%% exceeds the 5%% fast-path budget", arm.name, overhead*100)
		}
	}
}
