package crashsweep

import (
	"reflect"
	"testing"

	"pmwcas"
	"pmwcas/internal/nvram"
)

// sweep runs one workload's full crash sweep and fails the test on any
// violation or harness error.
func sweep(t *testing.T, opt Options, workload string) *Result {
	t.Helper()
	opt.Workloads = []string{workload}
	res, err := Run(opt)
	if err != nil {
		t.Fatalf("sweep %s: %v", workload, err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %v", v)
	}
	if res.Points == 0 {
		t.Fatalf("sweep %s produced no crash points", workload)
	}
	return res
}

// TestSweepInitWindow crashes at every device operation of each index's
// first-use initialization (plus a couple of operations, so the published
// structure is exercised too). Every index is created by one PMwCAS: a
// crash anywhere in it must recover to "absent" or "published", with the
// root blocks it allocated either reachable or freed.
func TestSweepInitWindow(t *testing.T) {
	for _, w := range Names() {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			sweep(t, Options{Ops: 2, Seed: 1}, w)
		})
	}
}

// TestSweepShort is the CI regression sweep: a bounded trace per index
// workload, every crash point checked.
func TestSweepShort(t *testing.T) {
	ops := 40
	if testing.Short() {
		ops = 12
	}
	for _, w := range []string{"skiplist", "bwtree", "hashtable", "pqueue", "blobkv", "blobkv-bwtree", "blobkv-hash"} {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			sweep(t, Options{Ops: ops, Seed: 1}, w)
		})
	}
}

// TestSweepMultiShard is the bounded multi-shard sweep: the hash mix
// routed across a two-shard store, every crash point recovered and — the
// part no single-shard sweep reaches — re-crashed between the two shard
// recoveries and recovered again from scratch.
func TestSweepMultiShard(t *testing.T) {
	ops := 30
	if testing.Short() {
		ops = 10
	}
	res := sweep(t, Options{Ops: ops, Seed: 1}, "sharded")
	if res.MidRecoveryChecked == 0 {
		t.Fatal("no crash image was re-crashed between shard recoveries (the inter-shard window went untested)")
	}
	t.Logf("%d crash points, %d checked, %d re-crashed mid-recovery",
		res.Points, res.Checked, res.MidRecoveryChecked)
}

// TestSweepServer pushes the trace through the TCP front-end, so crash
// points fire on the server's connection goroutine.
func TestSweepServer(t *testing.T) {
	ops := 25
	if testing.Short() {
		ops = 8
	}
	sweep(t, Options{Ops: ops, Seed: 1}, "server")
}

// TestSweepWithEviction enables opportunistic cache-line eviction, which
// persists torn prefixes of multi-word publishes, on every workload, so
// every creation path is swept with torn lines: an evicted anchor that
// still names the creating descriptor must recover to absent or
// published, never to a lone anchor.
//
// Under the race detector the workloads in stridedUnderRace check every
// third crash point. The detector only slows their replay (their
// concurrent paths are race-checked by TestSweepShort, TestSweepServer
// and TestSweepMultiShard), and checking every point would push the
// package past go test's ten-minute default on two CPUs. The plain test
// job checks every point of every workload.
func TestSweepWithEviction(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	stridedUnderRace := map[string]bool{"blobkv-bwtree": true, "blobkv-hash": true, "server": true, "sharded": true}
	for _, w := range Names() {
		for _, seed := range seeds {
			opt := Options{Ops: 10, Seed: seed, EvictEvery: 3}
			if raceEnabled && stridedUnderRace[w] {
				opt.Shard, opt.Shards = int(seed%3), 3
			}
			t.Run(w, func(t *testing.T) {
				t.Parallel()
				sweep(t, opt, w)
			})
		}
	}
}

// TestSweepSharding proves the shard split is a partition: the union of
// all shards' checks equals the unsharded sweep, with no crash point
// checked twice.
func TestSweepSharding(t *testing.T) {
	whole := sweep(t, Options{Ops: 5, Seed: 1}, "skiplist")
	var points, checked int
	const shards = 3
	for i := 0; i < shards; i++ {
		r := sweep(t, Options{Ops: 5, Seed: 1, Shard: i, Shards: shards}, "skiplist")
		if r.Points != whole.Points {
			t.Errorf("shard %d saw %d points, unsharded saw %d", i, r.Points, whole.Points)
		}
		points = r.Points
		checked += r.Checked
	}
	// Every shard repeats the two final post-trace checks; mid-trace
	// points split exactly.
	if want := points + 2*shards; checked != want {
		t.Errorf("shards checked %d points total, want %d", checked, want)
	}
}

// TestRecoveryReentry proves recovery is idempotent under re-entry: crash
// a workload's store, then crash again at every device operation of the
// recovery itself and recover from scratch. Every such doubly-crashed
// image must recover to the same contents as the uninterrupted recovery.
// Pinned regression for the missing durability barrier at the end of
// descriptor-pool recovery.
func TestRecoveryReentry(t *testing.T) {
	opt := Options{Ops: 30, Seed: 1}
	cfg := storeConfig(opt)
	st, err := pmwcas.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("skiplist")
	o := w.newOracle()
	if err := w.run(st, o, opt); err != nil {
		t.Fatal(err)
	}
	img := st.Device().CloneCrashed()

	// Baseline: one clean recovery of the crashed image.
	base, err := pmwcas.OpenDevice(img.CloneCrashed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseDS, err := base.CheckInvariants(pmwcas.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.snapshot().match(baseDS); err != nil {
		t.Fatalf("baseline recovery: %v", err)
	}

	// Sweep: the hook fires at every mutating operation of the first
	// recovery; each firing is a crash-during-recovery image that a
	// second, uninterrupted recovery must repair to the same state.
	c := img.CloneCrashed()
	points := 0
	c.SetHook(func(_ string, _ nvram.Offset) {
		points++
		k := points
		twice, err := pmwcas.OpenDevice(c.CloneCrashed(), cfg)
		if err != nil {
			t.Errorf("re-entry point %d: reopen: %v", k, err)
			return
		}
		ds, err := twice.CheckInvariants(pmwcas.CheckOptions{})
		if err != nil {
			t.Errorf("re-entry point %d: %v", k, err)
			return
		}
		if !reflect.DeepEqual(ds.SkipList, baseDS.SkipList) {
			t.Errorf("re-entry point %d: contents diverge from baseline recovery", k)
		}
	})
	rs, err := pmwcas.OpenDevice(c, cfg)
	c.SetHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if points == 0 {
		t.Fatal("recovery performed no mutating device operations (sweep is vacuous)")
	}
	ds, err := rs.CheckInvariants(pmwcas.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds.SkipList, baseDS.SkipList) {
		t.Error("swept recovery diverges from baseline recovery")
	}
	t.Logf("recovery re-entry: %d crash points", points)
}

// TestViolationIsPinned plants a real durability bug — the oracle is told
// about a write the store never saw — and checks the sweep reports it
// with a reproducible (seed, point) pin. This is the harness's own
// regression: a sweep that cannot detect a lost write proves nothing.
func TestViolationIsPinned(t *testing.T) {
	opt := Options{Ops: 4, Seed: 9}
	if err := (&opt).fill(); err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("skiplist")
	w.run = func(st *pmwcas.Store, o oracle, opt Options) error {
		kv := o.(*kvOracle)
		list, err := st.SkipList()
		if err != nil {
			return err
		}
		h := list.NewHandle(opt.Seed)
		if err := h.Insert(7, 70); err != nil {
			return err
		}
		kv.begin(kvOp{key: 7, val: 70})
		kv.commit(true)
		// Lie: acknowledge a write that never happened. Every later crash
		// point must flag the recovered image for missing key 8.
		kv.begin(kvOp{key: 8, val: 80})
		kv.commit(true)
		return h.Insert(9, 90) // generate post-lie crash points
	}
	s, err := sweepWorkload(opt, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.violations) == 0 {
		t.Fatal("sweep missed a planted lost write")
	}
	v := s.violations[0]
	if v.Seed != 9 || v.Point == 0 || v.Workload != "skiplist" {
		t.Fatalf("violation not pinned: %+v", v)
	}
	// Reproduce from the pin alone.
	opt.Point = v.Point
	s2, err := sweepWorkload(opt, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.violations) != 1 || s2.violations[0].Point != v.Point {
		t.Fatalf("pinned reproduction: got %v", s2.violations)
	}
}
