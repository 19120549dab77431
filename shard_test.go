package pmwcas

import (
	"bytes"
	"strings"
	"testing"

	"pmwcas/internal/nvram"
)

func testShardConfig(shards int) Config {
	return Config{
		Size:               uint64(shards) << 20, // 1 MiB per shard
		Shards:             shards,
		Descriptors:        64,
		BwTreeMappingSlots: 1 << 10,
		HashDirSlots:       1 << 6,
	}
}

// TestShardedStoreBasics drives a four-shard store end to end: keys
// routed by ShardForKey land on every shard, the merged Stats sum the
// per-shard counters, and the whole thing survives a crash, recovers
// shard by shard, and passes the full-store audit.
func TestShardedStoreBasics(t *testing.T) {
	const shards = 4
	st, err := Create(testShardConfig(shards))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.ShardCount(); got != shards {
		t.Fatalf("ShardCount = %d, want %d", got, shards)
	}

	// Route 400 keys exactly as the server would and insert each into its
	// shard's hash table (one handle per shard — handles are a bounded
	// startup resource).
	handles := make([]*HashTableHandle, shards)
	for si := 0; si < shards; si++ {
		tab, err := st.Shard(si).HashTable(HashTableOptions{})
		if err != nil {
			t.Fatalf("shard %d HashTable: %v", si, err)
		}
		handles[si] = tab.NewHandle()
	}
	const n = 400
	hit := make([]int, shards)
	for k := uint64(1); k <= n; k++ {
		si := st.ShardForKey(k)
		if si < 0 || si >= shards {
			t.Fatalf("ShardForKey(%d) = %d, out of range", k, si)
		}
		hit[si]++
		if err := handles[si].Insert(k, k*7); err != nil {
			t.Fatalf("shard %d Insert(%d): %v", si, k, err)
		}
	}
	for si, c := range hit {
		if c == 0 {
			t.Fatalf("shard %d received no keys out of %d — routing is degenerate", si, n)
		}
	}

	// Merged stats: per-shard table lengths sum to n, and the shard count
	// plus summed pool activity show up in one snapshot.
	total := 0
	for si := 0; si < shards; si++ {
		total += handles[si].Len()
	}
	if total != n {
		t.Fatalf("per-shard lengths sum to %d, want %d", total, n)
	}
	ss := st.Stats()
	if ss.Shards != shards {
		t.Fatalf("Stats().Shards = %d, want %d", ss.Shards, shards)
	}
	if ss.Pool.Succeeded == 0 || ss.DescriptorsCap != shards*64 {
		t.Fatalf("merged stats look unmerged: %+v", ss)
	}

	// Crash, recover (all shards, in order), audit, and re-read.
	if err := st.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	ds, err := st.CheckInvariants(CheckOptions{})
	if err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	if len(ds.Hash) != n {
		t.Fatalf("audit found %d hash entries, want %d", len(ds.Hash), n)
	}
	// Each shard's table is its first bucket plus one per split.
	if want := int(ss.HashSplits) + shards; ds.HashCheck.Buckets != want {
		t.Fatalf("audit found %d hash buckets, want merged splits + shards = %d", ds.HashCheck.Buckets, want)
	}
	// Pre-crash handles are poisoned by Recover; re-mint one per shard.
	for si := 0; si < shards; si++ {
		tab, err := st.Shard(si).HashTable(HashTableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		handles[si] = tab.NewHandle()
	}
	for k := uint64(1); k <= n; k++ {
		if v, err := handles[st.ShardForKey(k)].Get(k); err != nil || v != k*7 {
			t.Fatalf("after recovery, Get(%d) = (%d, %v), want %d", k, v, err, k*7)
		}
	}
}

// TestShardForKey pins the routing function's contract: deterministic,
// in range, non-degenerate, and the single-shard fast path.
func TestShardForKey(t *testing.T) {
	st, err := Create(testShardConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for k := uint64(0); k < 1000; k++ {
		a, b := st.ShardForKey(k), st.ShardForKey(k)
		if a != b {
			t.Fatalf("ShardForKey(%d) is not deterministic: %d vs %d", k, a, b)
		}
		seen[a] = true
	}
	if len(seen) != 4 {
		t.Fatalf("1000 sequential keys hit only %d of 4 shards", len(seen))
	}
	one, err := Create(testRecoverConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		if got := one.ShardForKey(k); got != 0 {
			t.Fatalf("single-shard ShardForKey(%d) = %d, want 0", k, got)
		}
	}
}

// TestShardRecoveryHookOrder: Config.RecoveryHook must fire once per
// shard, in shard order, on both recovery paths (OpenDevice and
// in-place Recover) — the contract crash sweeps rely on to interleave
// crashes between shard recoveries.
func TestShardRecoveryHookOrder(t *testing.T) {
	cfg := testShardConfig(3)
	st, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	list, err := st.Shard(2).SkipList()
	if err != nil {
		t.Fatal(err)
	}
	if err := list.NewHandle(1).Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Crash(); err != nil {
		t.Fatal(err)
	}

	var order []int
	st.cfg.RecoveryHook = func(shard int) { order = append(order, shard) }
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("Recover hook order = %v, want [0 1 2]", order)
	}

	if err := st.Crash(); err != nil {
		t.Fatal(err)
	}
	var pre bytes.Buffer
	if err := st.Device().WriteSnapshot(&pre); err != nil {
		t.Fatal(err)
	}
	dev2 := nvram.New(cfg.Size)
	if err := dev2.ReadSnapshot(bytes.NewReader(pre.Bytes())); err != nil {
		t.Fatal(err)
	}
	order = nil
	cfg.RecoveryHook = func(shard int) { order = append(order, shard) }
	if _, err := OpenDevice(dev2, cfg); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("OpenDevice hook order = %v, want [0 1 2]", order)
	}
}

// TestShardRecoverMatchesOpenDevice is the sharded golden-image test:
// with two populated shards, in-place Recover and OpenDevice over the
// same crashed image must produce byte-identical devices — recovery is
// a pure function of Config shard by shard, with no cross-shard bleed.
func TestShardRecoverMatchesOpenDevice(t *testing.T) {
	cfg := testShardConfig(2)
	st, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for si := 0; si < 2; si++ {
		sh := st.Shard(si)
		list, err := sh.SkipList()
		if err != nil {
			t.Fatal(err)
		}
		h := list.NewHandle(1)
		for i := 1; i <= 30; i++ {
			if err := h.Insert(uint64(i), uint64(si*1000+i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i <= 30; i += 4 {
			if err := h.Delete(uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		q, err := sh.Queue()
		if err != nil {
			t.Fatal(err)
		}
		qh := q.NewHandle()
		for i := 1; i <= 5; i++ {
			if err := qh.Enqueue(uint64(si*100 + i)); err != nil {
				t.Fatal(err)
			}
		}
		tab, err := sh.HashTable(HashTableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		th := tab.NewHandle()
		for i := 1; i <= 50; i++ {
			if err := th.Insert(uint64(i), uint64(i*3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Crash(); err != nil {
		t.Fatal(err)
	}

	var pre bytes.Buffer
	if err := st.Device().WriteSnapshot(&pre); err != nil {
		t.Fatal(err)
	}

	// Path A: in-place recovery.
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	var imgA bytes.Buffer
	if err := st.Device().WriteSnapshot(&imgA); err != nil {
		t.Fatal(err)
	}

	// Path B: reopen the crashed image on a fresh device.
	dev2 := nvram.New(cfg.Size)
	if err := dev2.ReadSnapshot(bytes.NewReader(pre.Bytes())); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenDevice(dev2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var imgB bytes.Buffer
	if err := dev2.WriteSnapshot(&imgB); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(imgA.Bytes(), imgB.Bytes()) {
		a, b := imgA.Bytes(), imgB.Bytes()
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				// Name the shard whose region the divergence falls in.
				shard := -1
				for si, s := range st.shards {
					if nvram.Offset(i) >= s.poolRegion.Base && nvram.Offset(i) < s.hashDirRegion.End() {
						shard = si
					}
				}
				t.Fatalf("recovered images diverge at byte %#x (shard %d): in-place %#x, OpenDevice %#x",
					i, shard, a[i], b[i])
			}
		}
		t.Fatalf("recovered images differ in length: %d vs %d", len(a), len(b))
	}

	dsA, err := st.CheckInvariants(CheckOptions{})
	if err != nil {
		t.Fatalf("in-place CheckInvariants: %v", err)
	}
	dsB, err := st2.CheckInvariants(CheckOptions{})
	if err != nil {
		t.Fatalf("OpenDevice CheckInvariants: %v", err)
	}
	if len(dsA.SkipList) != len(dsB.SkipList) || len(dsA.Hash) != len(dsB.Hash) ||
		len(dsA.Queue) != len(dsB.Queue) {
		t.Fatalf("recovered contents disagree: %d/%d list, %d/%d hash, %d/%d queued",
			len(dsA.SkipList), len(dsB.SkipList), len(dsA.Hash), len(dsB.Hash),
			len(dsA.Queue), len(dsB.Queue))
	}
}

// TestShardInvariantBridging: a single shard's invariant violation must
// fail the whole-store audit, and the error must name the shard. The
// violation here is an allocator leak on shard 1 — a block delivered to
// a root word whose anchor is then wiped, leaving it allocated but
// unreachable.
func TestShardInvariantBridging(t *testing.T) {
	st, err := Create(testShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	// Control: the untouched two-shard store passes.
	if err := st.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CheckInvariants(CheckOptions{}); err != nil {
		t.Fatalf("audit of a clean store: %v", err)
	}
	// Leak a block on shard 1: delivered to a root word, which the audit's
	// reachability scan does not cover — allocated but unreachable.
	target := st.Shard(1).RootWord(0)
	if _, err := st.Shard(1).Alloc(64, target); err != nil {
		t.Fatal(err)
	}
	if err := st.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	if st.Device().Load(target) == 0 {
		t.Fatal("allocation did not survive the crash")
	}
	_, err = st.CheckInvariants(CheckOptions{})
	if err == nil {
		t.Fatal("audit passed with a leaked block on shard 1")
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("audit error does not name the failing shard: %v", err)
	}
}

// TestConfigOverflowErrors pins the fill() validation: a configuration
// whose fixed regions cannot fit the per-shard budget must be rejected
// up front with an error naming the oversized region, not clamped into
// a silently undersized allocator or a layout panic.
func TestConfigOverflowErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{
			name: "descriptor pool",
			cfg:  Config{Size: 1 << 20, Descriptors: 1 << 20},
			want: "descriptor pool",
		},
		{
			name: "mapping table",
			cfg:  Config{Size: 1 << 20, Descriptors: 64, BwTreeMappingSlots: 1 << 24},
			want: "Bw-tree mapping table",
		},
		{
			name: "hash directory",
			cfg: Config{Size: 1 << 20, Descriptors: 64,
				BwTreeMappingSlots: 1 << 10, HashDirSlots: 1 << 24},
			want: "hash directory",
		},
		{
			name: "too many shards",
			cfg:  Config{Size: 1 << 21, Shards: 16},
			want: "Shards 16",
		},
		{
			name: "negative shards",
			cfg:  Config{Size: 1 << 20, Shards: -2},
			want: "Shards must be positive",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Create(tc.cfg)
			if err == nil {
				t.Fatal("Create accepted an impossible configuration")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestConfigLayoutKnobs: a layout knob an index would refuse on first
// open fails Create up front, with an error naming the knob, rather than
// a store that opens and then cannot open its hash table or Bw-tree.
func TestConfigLayoutKnobs(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Size: 1 << 20, Descriptors: 64, BwTreeMappingSlots: 1 << 10, HashDirSlots: 1000}, "HashDirSlots"},
		{Config{Size: 1 << 20, Descriptors: 64, BwTreeMappingSlots: 15}, "BwTreeMappingSlots"},
	} {
		if _, err := Create(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Create(%+v) = %v, want an error naming %s", tc.cfg, err, tc.want)
		}
	}
	st, err := Create(Config{Size: 1 << 20, Descriptors: 64, BwTreeMappingSlots: 16, HashDirSlots: 1})
	if err != nil {
		t.Fatalf("the smallest valid layout: %v", err)
	}
	defer st.Close()
	if _, err := st.HashTable(HashTableOptions{}); err != nil {
		t.Fatalf("HashTable on a one-entry directory: %v", err)
	}
	if _, err := st.BwTree(BwTreeOptions{}); err != nil {
		t.Fatalf("BwTree on a 16-slot mapping table: %v", err)
	}
}

// TestPoolStatsMergesShards is the regression test for PoolStats
// returning only shard 0's counters: drive PMwCAS activity exclusively
// on a non-zero shard and assert the merged view still sees it (the
// old single-shard read reported all zeros here).
func TestPoolStatsMergesShards(t *testing.T) {
	const shards = 4
	st, err := Create(testShardConfig(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Pick a shard that is not 0 and insert only keys routed to it.
	target := 0
	keys := make(map[int][]uint64)
	for k := uint64(1); k <= 200; k++ {
		si := st.ShardForKey(k)
		keys[si] = append(keys[si], k)
		if si != 0 {
			target = si
		}
	}
	if target == 0 {
		t.Fatal("no key routed off shard 0 — routing is degenerate")
	}
	tab, err := st.Shard(target).HashTable(HashTableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := tab.NewHandle()
	for _, k := range keys[target][:10] {
		if err := h.Insert(k, k); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}

	ps := st.PoolStats()
	if ps.Succeeded == 0 || ps.Allocated == 0 {
		t.Fatalf("PoolStats sees no activity on shard %d — not merged across shards: %+v", target, ps)
	}
	if got, want := ps, st.Stats().Pool; got != want {
		t.Fatalf("PoolStats %+v disagrees with Stats().Pool %+v", got, want)
	}
}
