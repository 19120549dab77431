package alloc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pmwcas/internal/nvram"
)

// testEnv builds a device with an allocator region and a scratch region
// whose words serve as delivery targets.
func testEnv(t testing.TB, spec []Class, handles int) (*nvram.Device, *Allocator, nvram.Region) {
	t.Helper()
	meta := MetaSize(spec, handles)
	dev := nvram.New(meta + 1<<16)
	l := nvram.NewLayout(dev)
	aRegion := l.Carve(meta)
	scratch := l.Carve(1 << 12)
	a, err := New(dev, aRegion, spec, handles)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return dev, a, scratch
}

var smallSpec = []Class{
	{BlockSize: 64, Count: 64},
	{BlockSize: 256, Count: 16},
}

func TestAllocDeliversIntoTarget(t *testing.T) {
	dev, a, scratch := testEnv(t, smallSpec, 2)
	h := a.NewHandle()
	target := scratch.Base
	block, err := h.Alloc(64, target)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if got := dev.Load(target); got != block {
		t.Fatalf("target word = %#x, want %#x", got, block)
	}
	if got := dev.PersistedLoad(target); got != block {
		t.Fatalf("delivery not durable: persisted target = %#x, want %#x", got, block)
	}
	if sz, err := a.BlockSize(block); err != nil || sz != 64 {
		t.Fatalf("BlockSize = %d, %v", sz, err)
	}
}

func TestAllocZeroesBlock(t *testing.T) {
	dev, a, scratch := testEnv(t, smallSpec, 2)
	h := a.NewHandle()
	block, err := h.Alloc(64, scratch.Base)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	// Dirty the block, free it, allocate again: must come back zeroed.
	for off := block; off < block+64; off += 8 {
		dev.Store(off, ^uint64(0))
	}
	if err := a.Free(block); err != nil {
		t.Fatalf("Free: %v", err)
	}
	block2, err := h.Alloc(64, scratch.Base)
	if err != nil {
		t.Fatalf("re-Alloc: %v", err)
	}
	if block2 != block {
		// LIFO free list should hand the same block back; not essential,
		// but the zeroing check relies on reuse, so allocate until we get
		// it if the policy ever changes.
		t.Fatalf("expected block reuse, got %#x vs %#x", block2, block)
	}
	for off := block2; off < block2+64; off += 8 {
		if v := dev.Load(off); v != 0 {
			t.Fatalf("reused block not zeroed at %#x: %#x", off, v)
		}
		if v := dev.PersistedLoad(off); v != 0 {
			t.Fatalf("reused block zeroing not durable at %#x: %#x", off, v)
		}
	}
}

func TestAllocFallsBackToLargerClass(t *testing.T) {
	dev, a, scratch := testEnv(t, smallSpec, 1)
	h := a.NewHandle()
	// Exhaust the 64-byte class.
	for i := 0; i < 64; i++ {
		if _, err := h.Alloc(64, scratch.Base); err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
	}
	block, err := h.Alloc(64, scratch.Base)
	if err != nil {
		t.Fatalf("fallback Alloc: %v", err)
	}
	if sz, _ := a.BlockSize(block); sz != 256 {
		t.Fatalf("fallback block size = %d, want 256", sz)
	}
	_ = dev
}

func TestAllocOutOfMemory(t *testing.T) {
	_, a, scratch := testEnv(t, []Class{{BlockSize: 64, Count: 2}}, 1)
	h := a.NewHandle()
	for i := 0; i < 2; i++ {
		if _, err := h.Alloc(64, scratch.Base); err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
	}
	if _, err := h.Alloc(64, scratch.Base); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestAllocTooLarge(t *testing.T) {
	_, a, scratch := testEnv(t, smallSpec, 1)
	h := a.NewHandle()
	if _, err := h.Alloc(1<<20, scratch.Base); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestFreeValidation(t *testing.T) {
	_, a, scratch := testEnv(t, smallSpec, 1)
	h := a.NewHandle()
	block, err := h.Alloc(64, scratch.Base)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := a.Free(block + 8); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("Free(misaligned) = %v, want ErrBadBlock", err)
	}
	if err := a.Free(scratch.Base); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("Free(outside) = %v, want ErrBadBlock", err)
	}
	if err := a.Free(block); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := a.Free(block); err == nil {
		t.Fatal("double free not detected")
	}
}

func TestInUseAccounting(t *testing.T) {
	_, a, scratch := testEnv(t, smallSpec, 1)
	h := a.NewHandle()
	b1, _ := h.Alloc(64, scratch.Base)
	b2, _ := h.Alloc(256, scratch.Base+8)
	blocks, bytes := a.InUse()
	if blocks != 2 || bytes != 64+256 {
		t.Fatalf("InUse = (%d, %d), want (2, 320)", blocks, bytes)
	}
	a.Free(b1)
	a.Free(b2)
	blocks, bytes = a.InUse()
	if blocks != 0 || bytes != 0 {
		t.Fatalf("InUse after frees = (%d, %d), want (0, 0)", blocks, bytes)
	}
}

// TestInUseMatchesPerBitWalk: InUse counts a bitmap word at a time; on a
// churned allocator it must agree with testing every block's bit, also
// for classes whose count is not a multiple of 64 (a masked tail word)
// and when that tail word carries bits past the last block. It reads one
// device word per 64 blocks.
func TestInUseMatchesPerBitWalk(t *testing.T) {
	spec := []Class{
		{BlockSize: 64, Count: 200}, // 3 full words + 8 bits
		{BlockSize: 128, Count: 64}, // exactly one word
		{BlockSize: 256, Count: 37}, // less than one word
	}
	dev, a, scratch := testEnv(t, spec, 1)
	h := a.NewHandle()
	rng := rand.New(rand.NewSource(5))
	var live []nvram.Offset
	for i := 0; i < 2000; i++ {
		if len(live) > 0 && rng.Intn(5) < 2 {
			j := rng.Intn(len(live))
			if err := a.Free(live[j]); err != nil {
				t.Fatalf("Free: %v", err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		b, err := h.Alloc(spec[rng.Intn(len(spec))].BlockSize, scratch.Base)
		if errors.Is(err, ErrOutOfMemory) {
			continue
		}
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		live = append(live, b)
	}
	// Stray bits beyond the last block of the 37-block class: not blocks.
	tail := a.bitWord(&a.classes[2], 0)
	dev.Store(tail, dev.Load(tail)|1<<37|1<<63)

	var wantBlocks, wantBytes uint64
	for ci := range a.classes {
		c := &a.classes[ci]
		for i := uint64(0); i < c.count; i++ {
			if a.bitTest(c, i) {
				wantBlocks++
				wantBytes += c.blockSize
			}
		}
	}
	if wantBlocks != uint64(len(live)) || wantBlocks == 0 {
		t.Fatalf("per-bit walk finds %d blocks, %d are live", wantBlocks, len(live))
	}
	before := dev.Stats().Loads
	blocks, bytes := a.InUse()
	if blocks != wantBlocks || bytes != wantBytes {
		t.Fatalf("InUse = (%d, %d), per-bit walk = (%d, %d)", blocks, bytes, wantBlocks, wantBytes)
	}
	if loads := dev.Stats().Loads - before; loads != 4+1+1 {
		t.Fatalf("InUse issued %d device loads, want one per bitmap word (6)", loads)
	}
}

func TestNewValidation(t *testing.T) {
	dev := nvram.New(1 << 20)
	l := nvram.NewLayout(dev)
	r := l.Carve(1 << 16)
	cases := []struct {
		name string
		spec []Class
		h    int
	}{
		{"empty spec", nil, 1},
		{"zero handles", smallSpec, 0},
		{"misaligned block size", []Class{{BlockSize: 100, Count: 4}}, 1},
		{"unsorted", []Class{{BlockSize: 256, Count: 4}, {BlockSize: 64, Count: 4}}, 1},
		{"zero count", []Class{{BlockSize: 64, Count: 0}}, 1},
		{"region too small", []Class{{BlockSize: 4096, Count: 1 << 20}}, 1},
	}
	for _, tc := range cases {
		if _, err := New(dev, r, tc.spec, tc.h); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}
}

// reopen simulates a restart: rebuild the allocator over the same region
// after a crash, then run recovery.
func reopen(t *testing.T, dev *nvram.Device, region nvram.Region, spec []Class, handles int) (*Allocator, int, int) {
	t.Helper()
	a, err := New(dev, region, spec, handles)
	if err != nil {
		t.Fatalf("reopen New: %v", err)
	}
	c, r := a.Recover()
	return a, c, r
}

func TestRecoverNoInFlight(t *testing.T) {
	dev, a, scratch := testEnv(t, smallSpec, 2)
	h := a.NewHandle()
	block, _ := h.Alloc(64, scratch.Base)
	region := nvram.Region{Base: nvram.LineBytes, Len: MetaSize(smallSpec, 2)}
	dev.Crash()
	a2, completed, rolled := reopen(t, dev, region, smallSpec, 2)
	if completed != 0 || rolled != 0 {
		t.Fatalf("recover = (%d, %d), want (0, 0)", completed, rolled)
	}
	// The completed allocation must still be allocated.
	if err := a2.Free(block); err != nil {
		t.Fatalf("block lost across crash: %v", err)
	}
}

// TestRecoverRollsBackUndeliveredAllocation simulates a crash after the
// block was reserved (delivery record + bitmap durable) but before the
// address reached the target word.
func TestRecoverRollsBackUndeliveredAllocation(t *testing.T) {
	dev, a, scratch := testEnv(t, smallSpec, 2)
	h := a.NewHandle()
	target := scratch.Base

	// Hand-run the first half of Alloc's protocol.
	block := uint64(0)
	{
		// Reserve block 0 of class 0 manually through the public API by
		// allocating and then rewinding the target delivery: instead, we
		// write the delivery record and bitmap directly, as a crash site
		// between Alloc's steps 2 and 4 would leave them.
		b, err := h.Alloc(64, target)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		block = b
		// Re-create the in-flight state: delivery record present, target
		// not yet written.
		dev.Store(h.slot, block)
		dev.Store(h.slot+nvram.WordSize, target)
		dev.Flush(h.slot)
		dev.Store(target, 0)
		dev.Flush(target)
	}
	region := nvram.Region{Base: nvram.LineBytes, Len: MetaSize(smallSpec, 2)}
	dev.Crash()
	a2, completed, rolled := reopen(t, dev, region, smallSpec, 2)
	if completed != 0 || rolled != 1 {
		t.Fatalf("recover = (%d, %d), want (0, 1)", completed, rolled)
	}
	// The block must be free again: allocating everything must succeed.
	h2 := a2.NewHandle()
	seen := false
	for i := 0; i < 64; i++ {
		b, err := h2.Alloc(64, scratch.Base+8)
		if err != nil {
			t.Fatalf("post-recovery Alloc %d: %v", i, err)
		}
		if b == block {
			seen = true
		}
	}
	if !seen {
		t.Fatal("rolled-back block never returned to the free list")
	}
}

// TestRecoverCompletesDeliveredAllocation simulates a crash after the
// target word was written but before the delivery record was retired.
func TestRecoverCompletesDeliveredAllocation(t *testing.T) {
	dev, a, scratch := testEnv(t, smallSpec, 2)
	h := a.NewHandle()
	target := scratch.Base
	block, err := h.Alloc(64, target)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	// Restore the delivery record as if the final slot clear never
	// persisted.
	dev.Store(h.slot, block)
	dev.Store(h.slot+nvram.WordSize, target)
	dev.Flush(h.slot)

	region := nvram.Region{Base: nvram.LineBytes, Len: MetaSize(smallSpec, 2)}
	dev.Crash()
	a2, completed, rolled := reopen(t, dev, region, smallSpec, 2)
	if completed != 1 || rolled != 0 {
		t.Fatalf("recover = (%d, %d), want (1, 0)", completed, rolled)
	}
	if got := dev.Load(target); got != block {
		t.Fatalf("target lost delivery: %#x, want %#x", got, block)
	}
	// Block must remain allocated: freeing succeeds exactly once.
	if err := a2.Free(block); err != nil {
		t.Fatalf("Free: %v", err)
	}
}

// Property: a random interleaving of allocs, frees, and crash/recover
// cycles never double-allocates a live block and never loses a block
// permanently (allocated + free == total).
func TestQuickCrashNeverLeaksOrDoubleAllocates(t *testing.T) {
	spec := []Class{{BlockSize: 64, Count: 32}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		meta := MetaSize(spec, 1)
		dev := nvram.New(meta + 1<<12)
		l := nvram.NewLayout(dev)
		region := l.Carve(meta)
		scratch := l.Carve(512)
		a, err := New(dev, region, spec, 1)
		if err != nil {
			return false
		}
		h := a.NewHandle()
		live := map[uint64]bool{}
		for i := 0; i < 100; i++ {
			switch rng.Intn(4) {
			case 0, 1: // alloc
				b, err := h.Alloc(64, scratch.Base)
				if err == nil {
					if live[b] {
						return false // double allocation
					}
					live[b] = true
				}
			case 2: // free a random live block
				for b := range live {
					if a.Free(b) != nil {
						return false
					}
					delete(live, b)
					break
				}
			case 3: // crash + recover
				dev.Crash()
				a, err = New(dev, region, spec, 1)
				if err != nil {
					return false
				}
				a.Recover()
				h = a.NewHandle()
			}
		}
		blocks, _ := a.InUse()
		free := a.FreeBlocks(64)
		return blocks+free == 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAllocDistinctBlocks(t *testing.T) {
	spec := []Class{{BlockSize: 64, Count: 1024}}
	dev, a, scratch := testEnv(t, spec, 8)
	_ = dev
	type result struct {
		blocks []uint64
		err    error
	}
	results := make(chan result, 8)
	for g := 0; g < 8; g++ {
		h := a.NewHandle()
		target := scratch.Base + nvram.Offset(g)*8
		go func() {
			var r result
			for i := 0; i < 100; i++ {
				b, err := h.Alloc(64, target)
				if err != nil {
					r.err = err
					break
				}
				r.blocks = append(r.blocks, b)
			}
			results <- r
		}()
	}
	seen := map[uint64]bool{}
	for g := 0; g < 8; g++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("Alloc: %v", r.err)
		}
		for _, b := range r.blocks {
			if seen[b] {
				t.Fatalf("block %#x allocated twice", b)
			}
			seen[b] = true
		}
	}
	if len(seen) != 800 {
		t.Fatalf("allocated %d distinct blocks, want 800", len(seen))
	}
}

func TestMetaSizeMatchesLayout(t *testing.T) {
	spec := DefaultClasses(1 << 10)
	meta := MetaSize(spec, 16)
	dev := nvram.New(meta + nvram.LineBytes)
	l := nvram.NewLayout(dev)
	region := l.Carve(meta)
	if _, err := New(dev, region, spec, 16); err != nil {
		t.Fatalf("MetaSize-sized region rejected: %v", err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	spec := []Class{{BlockSize: 64, Count: 1 << 12}}
	meta := MetaSize(spec, 1)
	dev := nvram.New(meta + 1<<12)
	l := nvram.NewLayout(dev)
	region := l.Carve(meta)
	scratch := l.Carve(64)
	a, err := New(dev, region, spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	h := a.NewHandle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := h.Alloc(64, scratch.Base)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(blk); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFreeManyWithBarrier(t *testing.T) {
	_, a, scratch := testEnv(t, smallSpec, 1)
	h := a.NewHandle()
	var blocks []nvram.Offset
	for i := 0; i < 4; i++ {
		b, err := h.Alloc(64, scratch.Base)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		blocks = append(blocks, b)
	}
	barrierRan := false
	err := a.FreeManyWithBarrier(blocks, func() {
		barrierRan = true
		// At barrier time, no block may be reallocatable yet (76 = the
		// 60 remaining 64B blocks + 16 fallback 256B blocks).
		if n := a.FreeBlocks(64); n != 76 {
			t.Errorf("blocks republished before barrier: %d free", n)
		}
	})
	if err != nil {
		t.Fatalf("FreeManyWithBarrier: %v", err)
	}
	if !barrierRan {
		t.Fatal("barrier never ran")
	}
	if n := a.FreeBlocks(64); n != 80 {
		t.Fatalf("free blocks = %d, want 80", n)
	}
	// Replay (recovery semantics): already-clear bits are skipped.
	if err := a.FreeManyWithBarrier(blocks, nil); err != nil {
		t.Fatalf("replayed FreeManyWithBarrier: %v", err)
	}
	if n := a.FreeBlocks(64); n != 80 {
		t.Fatalf("replay duplicated free-list entries: %d", n)
	}
	// Invalid offsets fail wholesale, before anything is freed.
	b, _ := h.Alloc(64, scratch.Base)
	if err := a.FreeManyWithBarrier([]nvram.Offset{b, 12345}, nil); err == nil {
		t.Fatal("bad offset accepted")
	}
	if err := a.Free(b); err != nil {
		t.Fatalf("partial free happened despite validation failure: %v", err)
	}
}
