package harness

import (
	"bytes"
	"strings"
	"testing"

	"pmwcas/internal/alloc"
	"pmwcas/internal/bwtree"
	"pmwcas/internal/core"
	"pmwcas/internal/index"
	"pmwcas/internal/nvram"
	"pmwcas/internal/skiplist"
)

func TestKeyGenDistributions(t *testing.T) {
	const span = 1000
	for _, d := range []Distribution{Uniform, Zipf, Sequential} {
		g := NewKeyGen(d, span, 1)
		seen := map[uint64]int{}
		for i := 0; i < 5000; i++ {
			k := g.Next()
			if k == 0 || k > span {
				t.Fatalf("%v: key %d out of [1,%d]", d, k, span)
			}
			seen[k]++
		}
		if len(seen) < 10 {
			t.Fatalf("%v: only %d distinct keys", d, len(seen))
		}
		if d == Zipf {
			// Skew check: the most popular key should dominate.
			maxN := 0
			for _, n := range seen {
				if n > maxN {
					maxN = n
				}
			}
			if maxN < 5000/10 {
				t.Fatalf("zipf max frequency %d looks uniform", maxN)
			}
		}
	}
}

func TestMixValidation(t *testing.T) {
	f := Factory{Label: "fake", New: func(int64) IndexOps { return fakeOps{} }}
	_, err := Run(f, Workload{Threads: 1, OpsPer: 1, KeySpace: 10, Mix: Mix{Reads: 50}}, nil)
	if err == nil {
		t.Fatal("mix not summing to 100 accepted")
	}
	_, err = Run(f, Workload{Threads: 0, OpsPer: 1, KeySpace: 10, Mix: ReadOnly}, nil)
	if err == nil {
		t.Fatal("zero threads accepted")
	}
}

type fakeOps struct{}

func (fakeOps) Insert(_, _ uint64) error                         { return nil }
func (fakeOps) Get(_ uint64) (uint64, error)                     { return 0, nil }
func (fakeOps) Update(_, _ uint64) error                         { return nil }
func (fakeOps) Delete(_ uint64) error                            { return nil }
func (fakeOps) Scan(_, _ uint64, _ func(index.Entry) bool) error { return nil }

func skipListFactory(list *skiplist.List, label string) Factory {
	return Factory{Label: label, New: func(seed int64) IndexOps { return list.NewHandle(seed) }}
}

func newSkipListEnv(t testing.TB, mode core.Mode) *skiplist.List {
	t.Helper()
	spec := []alloc.Class{
		{BlockSize: 64, Count: 1 << 14},
		{BlockSize: 128, Count: 1 << 12},
		{BlockSize: 256, Count: 1 << 10},
	}
	poolBytes := core.PoolSize(512, skiplist.MinDescriptorWords)
	aBytes := alloc.MetaSize(spec, 32)
	dev := nvram.New(poolBytes + aBytes + 1<<14)
	l := nvram.NewLayout(dev)
	poolReg := l.Carve(poolBytes)
	aReg := l.Carve(aBytes)
	roots := l.Carve(nvram.LineBytes)
	a, err := alloc.New(dev, aReg, spec, 32)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := core.NewPool(core.Config{
		Device: dev, Region: poolReg, DescriptorCount: 512,
		WordsPerDescriptor: skiplist.MinDescriptorWords, Mode: mode, Allocator: a,
	})
	if err != nil {
		t.Fatal(err)
	}
	list, err := skiplist.New(skiplist.Config{Pool: pool, Allocator: a, Roots: roots})
	if err != nil {
		t.Fatal(err)
	}
	return list
}

func TestRunSkipListWorkload(t *testing.T) {
	list := newSkipListEnv(t, core.Persistent)
	f := skipListFactory(list, "pmwcas-skiplist")
	r, err := Run(f, Workload{
		Threads: 2, OpsPer: 500, KeySpace: 1 << 10,
		Dist: Uniform, Mix: UpdateHeavy, Preload: 256,
	}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Ops != 1000 || r.OpsPerSec <= 0 {
		t.Fatalf("result = %+v", r)
	}
}

func TestRunAllMixes(t *testing.T) {
	list := newSkipListEnv(t, core.Persistent)
	f := skipListFactory(list, "sl")
	for _, mix := range []Mix{ReadOnly, ReadHeavy, UpdateHeavy, InsertDelete, ScanHeavy} {
		if _, err := Run(f, Workload{
			Threads: 2, OpsPer: 200, KeySpace: 512,
			Dist: Zipf, Mix: mix, Preload: 128,
		}, nil); err != nil {
			t.Fatalf("mix %+v: %v", mix, err)
		}
	}
}

func TestRunMicroAllVariants(t *testing.T) {
	for _, v := range []MicroVariant{VariantPMwCAS, VariantMwCAS, VariantHTM} {
		r, err := RunMicro(MicroConfig{
			Variant: v, Threads: 2, OpsPer: 500,
			ArrayWords: 1024, WordsPerOp: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if r.Attempts != 1000 {
			t.Fatalf("%s: attempts = %d", v, r.Attempts)
		}
		if r.SuccessRate <= 0.5 {
			t.Fatalf("%s: low-contention success rate %.2f", v, r.SuccessRate)
		}
	}
}

func TestMicroPersistenceCostVisible(t *testing.T) {
	p, err := RunMicro(MicroConfig{
		Variant: VariantPMwCAS, Threads: 1, OpsPer: 500,
		ArrayWords: 4096, WordsPerOp: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := RunMicro(MicroConfig{
		Variant: VariantMwCAS, Threads: 1, OpsPer: 500,
		ArrayWords: 4096, WordsPerOp: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.FlushesPer <= v.FlushesPer {
		t.Fatalf("persistent flushes/op %.2f <= volatile %.2f", p.FlushesPer, v.FlushesPer)
	}
	if v.FlushesPer != 0 {
		t.Fatalf("volatile MwCAS issued %.2f flushes/op", v.FlushesPer)
	}
}

func TestMicroHighContentionLowersSuccess(t *testing.T) {
	low, err := RunMicro(MicroConfig{
		Variant: VariantPMwCAS, Threads: 4, OpsPer: 300,
		ArrayWords: 1 << 14, WordsPerOp: 4, YieldEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunMicro(MicroConfig{
		Variant: VariantPMwCAS, Threads: 4, OpsPer: 300,
		ArrayWords: 8, WordsPerOp: 4, YieldEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// YieldEvery interleaves the threads mid-operation, so contention
	// manifests whatever the core count (without it, goroutines on a
	// 1-2 CPU host rarely overlap and both rates sit at ~1.0). The
	// invariant is that contention can only hurt, never help.
	if high.SuccessRate > low.SuccessRate {
		t.Fatalf("contention raised success rate: high %.3f vs low %.3f",
			high.SuccessRate, low.SuccessRate)
	}
	for _, r := range []MicroResult{low, high} {
		if r.SuccessRate < 0 || r.SuccessRate > 1 {
			t.Fatalf("success rate %v out of range", r.SuccessRate)
		}
	}
}

func TestRunMicroValidation(t *testing.T) {
	if _, err := RunMicro(MicroConfig{Variant: VariantPMwCAS}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := RunMicro(MicroConfig{
		Variant: "nope", Threads: 1, OpsPer: 1, ArrayWords: 8, WordsPerOp: 4,
	}); err == nil {
		t.Fatal("unknown variant accepted")
	}
	if _, err := RunMicro(MicroConfig{
		Variant: VariantPMwCAS, Threads: 1, OpsPer: 1, ArrayWords: 2, WordsPerOp: 4,
	}); err == nil {
		t.Fatal("array smaller than op accepted")
	}
}

func TestRunRecovery(t *testing.T) {
	for _, inflight := range []int{0, 8, 64} {
		r, err := RunRecovery(RecoveryBench{PoolSize: 256, InFlight: inflight})
		if err != nil {
			t.Fatalf("in-flight %d: %v", inflight, err)
		}
		if !r.CorrectOK {
			t.Fatalf("in-flight %d: recovery left torn operations", inflight)
		}
		if r.Elapsed <= 0 {
			t.Fatalf("in-flight %d: zero elapsed", inflight)
		}
	}
}

func TestRunRecoveryValidation(t *testing.T) {
	if _, err := RunRecovery(RecoveryBench{PoolSize: 4, InFlight: 8}); err == nil {
		t.Fatal("in-flight > pool accepted")
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := NewTable("E5: skip list", "variant", "threads", "ops/s")
	tbl.Add("pmwcas", 4, 123456.7)
	tbl.Add("cas", 4, 234567.8)
	var buf bytes.Buffer
	tbl.Print(&buf)
	out := buf.String()
	for _, want := range []string{"E5: skip list", "variant", "pmwcas", "cas", "123456.70"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestThroughputFormat(t *testing.T) {
	cases := map[float64]string{
		1_500_000: "1.50M",
		12_340:    "12.3K",
		999:       "999",
	}
	for in, want := range cases {
		if got := Throughput(in); got != want {
			t.Fatalf("Throughput(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestOverheadPct(t *testing.T) {
	if got := OverheadPct(100, 97); got != 3 {
		t.Fatalf("OverheadPct = %v", got)
	}
	if got := OverheadPct(0, 1); got != 0 {
		t.Fatalf("OverheadPct(0,_) = %v", got)
	}
}

func TestReverseScannerInterface(t *testing.T) {
	list := newSkipListEnv(t, core.Persistent)
	f := skipListFactory(list, "sl")
	ops := f.New(1)
	rs, ok := ops.(index.ReverseScanner)
	if !ok {
		t.Fatal("skip list ops do not implement ReverseScanner")
	}
	ops.Insert(5, 50)
	ops.Insert(6, 60)
	var keys []uint64
	rs.ScanReverse(1, 100, func(e index.Entry) bool { keys = append(keys, e.Key); return true })
	if len(keys) != 2 || keys[0] != 6 || keys[1] != 5 {
		t.Fatalf("reverse scan = %v", keys)
	}
}

// Exercise the CAS list and the Bw-tree end to end through Run.
func TestRunOtherFactories(t *testing.T) {
	spec := []alloc.Class{
		{BlockSize: 64, Count: 1 << 12},
		{BlockSize: 512, Count: 1 << 9},
		{BlockSize: 1024, Count: 1 << 8},
	}
	aBytes := alloc.MetaSize(spec, 16)
	poolBytes := core.PoolSize(256, 16)
	dev := nvram.New(aBytes + poolBytes + 1<<15)
	l := nvram.NewLayout(dev)
	poolReg := l.Carve(poolBytes)
	aReg := l.Carve(aBytes)
	mapReg := l.Carve(1 << 12)
	metaReg := l.Carve(nvram.LineBytes)
	a, err := alloc.New(dev, aReg, spec, 16)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := core.NewPool(core.Config{
		Device: dev, Region: poolReg, DescriptorCount: 256,
		WordsPerDescriptor: 16, Mode: core.Volatile, Allocator: a,
	})
	if err != nil {
		t.Fatal(err)
	}

	cl, err := skiplist.NewCAS(dev, a, pool.Epochs())
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Threads: 2, OpsPer: 150, KeySpace: 256, Dist: Uniform,
		Mix: Mix{Reads: 40, Inserts: 20, Updates: 20, Deletes: 10, Scans: 10}, Preload: 64}
	if r, err := Run(Factory{Label: "cas", New: func(seed int64) IndexOps { return cl.NewHandle(seed) }}, w, nil); err != nil || r.Ops == 0 {
		t.Fatalf("CAS list run: %+v, %v", r, err)
	}

	tree, err := bwtree.New(bwtree.Config{
		Pool: pool, Allocator: a, Mapping: mapReg, Meta: metaReg,
		SMO: bwtree.SMOSingleCAS, LeafCapacity: 16, InnerCapacity: 8, ConsolidateAfter: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r, err := Run(Factory{Label: "bw", New: func(int64) IndexOps { return tree.NewHandle() }}, w, nil); err != nil || r.Ops == 0 {
		t.Fatalf("bwtree run: %+v, %v", r, err)
	}
}
