package alloc

import (
	"errors"
	"fmt"
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

func TestRecoverNoInFlight(t *testing.T) {
	dev, a, scratch := testEnv(t, smallSpec, 2)
	h := a.NewHandle()
	block, _ := h.Alloc(64, scratch.Base)
	dev.Fence() // the caller's publishing fence
	region := nvram.Region{Base: nvram.LineBytes, Len: MetaSize(smallSpec, 2)}
	dev.Crash()
	a2, err := New(dev, region, smallSpec, 2)
	if err != nil {
		t.Fatalf("reopen New: %v", err)
	}
	// The completed allocation must still be allocated.
	if err := a2.Free(block); err != nil {
		t.Fatalf("block lost across crash: %v", err)
	}
}

// TestRecoverRollsBackUndeliveredAllocation crashes after the block's
// offset is durable in the target but before its allocation bit is set:
// the restart finds the block free, the target's owner frees it as a
// no-op, and the block is allocatable again.
func TestRecoverRollsBackUndeliveredAllocation(t *testing.T) {
	dev, a, scratch := testEnv(t, smallSpec, 2)
	h := a.NewHandle()
	target := scratch.Base
	var img *nvram.Device
	dev.SetHook(func(op string, off nvram.Offset) {
		if op == "cas" && img == nil {
			img = dev.CloneCrashed() // the bit's CAS has not happened yet
		}
	})
	block, err := h.Alloc(64, target)
	dev.SetHook(nil)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if img == nil {
		t.Fatal("Alloc set no allocation bit")
	}
	if got := img.Load(target); got != block {
		t.Fatalf("target before the bit = %#x, want the delivered %#x", got, block)
	}
	region := nvram.Region{Base: nvram.LineBytes, Len: MetaSize(smallSpec, 2)}
	a2, err := New(img, region, smallSpec, 2)
	if err != nil {
		t.Fatalf("reopen New: %v", err)
	}
	if a2.Allocated(block) {
		t.Fatal("block allocated although its bit never persisted")
	}
	if err := a2.Free(block); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("owner's recovery Free = %v, want ErrDoubleFree (a no-op)", err)
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

// TestRecoverCompletesDeliveredAllocation crashes after Alloc and the
// caller's publishing fence: the target keeps the delivery and the block
// stays allocated, so freeing it succeeds exactly once.
func TestRecoverCompletesDeliveredAllocation(t *testing.T) {
	dev, a, scratch := testEnv(t, smallSpec, 2)
	h := a.NewHandle()
	target := scratch.Base
	block, err := h.Alloc(64, target)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	dev.Fence() // the caller's publishing fence
	region := nvram.Region{Base: nvram.LineBytes, Len: MetaSize(smallSpec, 2)}
	dev.Crash()
	a2, err := New(dev, region, smallSpec, 2)
	if err != nil {
		t.Fatalf("reopen New: %v", err)
	}
	if got := dev.Load(target); got != block {
		t.Fatalf("target lost delivery: %#x, want %#x", got, block)
	}
	if !a2.Allocated(block) {
		t.Fatal("delivered block is free after the restart")
	}
	if err := a2.Free(block); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := a2.Free(block); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("second Free = %v, want ErrDoubleFree", err)
	}
}

// owners models the words that own blocks. A word holding a bare block
// offset is a pending owner with a recovery of its own, as a descriptor
// entry or a staging slot is: recovery frees the block, erasing the word
// in the free's barrier. A word holding the offset with bit 0 set is a
// committed owner, as a published index word is: recovery keeps it.
type owners struct {
	dev   *nvram.Device
	words nvram.Region
}

const committed = 1

func (o owners) word(i int) nvram.Offset { return o.words.Base + nvram.Offset(i)*nvram.WordSize }

func (o owners) set(i int, v uint64) {
	o.dev.Store(o.word(i), v)
	o.dev.Flush(o.word(i))
	o.dev.Fence()
}

// named returns the blocks the words name, pending ones only if pending.
func (o owners) named(pending bool) []nvram.Offset {
	var out []nvram.Offset
	for i := 0; i < int(o.words.Len/nvram.WordSize); i++ {
		if v := o.dev.Load(o.word(i)); v != 0 && (pending || v&committed != 0) {
			out = append(out, v&^committed)
		}
	}
	return out
}

// recover is the owners' recovery: it frees what the pending words name.
func (o owners) recover(a *Allocator) error {
	var pending []nvram.Offset
	var ws []int
	for i := 0; i < int(o.words.Len/nvram.WordSize); i++ {
		if v := o.dev.Load(o.word(i)); v != 0 && v&committed == 0 {
			pending, ws = append(pending, v), append(ws, i)
		}
	}
	return a.FreeManyWithBarrier(pending, func() {
		for _, i := range ws {
			o.set(i, 0)
		}
	})
}

// checkImage rebuilds an allocator on a crashed copy of dev, as a
// restart does, and checks that every set bit is named by an owner word
// and that its block holds the fills words records for it.
// It then runs the owners' recovery and checks that the blocks are back
// exactly once: nothing leaked, nothing a committed word names is free,
// and nothing is on a free list twice.
func checkImage(dev *nvram.Device, region, words nvram.Region, spec []Class, fills map[nvram.Offset]uint64) error {
	img := dev.CloneCrashed()
	a, err := New(img, region, spec, 1)
	if err != nil {
		return err
	}
	o := owners{img, words}
	named := map[nvram.Offset]bool{}
	for _, b := range o.named(true) {
		named[b] = true
	}
	for ci := range a.classes {
		c := &a.classes[ci]
		for i := uint64(0); i < c.count; i++ {
			b := c.blocksBase + i*c.blockSize
			if !a.bitTest(c, i) {
				continue
			}
			if !named[b] {
				return fmt.Errorf("block %#x is allocated but no owner word names it", b)
			}
			for off := b; off < b+c.blockSize; off += nvram.WordSize {
				if want, ok := fills[off]; ok && img.Load(off) != want {
					return fmt.Errorf("block %#x is allocated but word %#x holds %#x, not its fill %#x", b, off, img.Load(off), want)
				}
			}
		}
	}
	if err := o.recover(a); err != nil {
		return err
	}
	if err := a.CheckInUse(o.named(false)); err != nil {
		return fmt.Errorf("after the owners' recovery: %w", err)
	}
	for ci := range a.classes {
		seen := map[uint64]bool{}
		for _, idx := range a.classes[ci].free {
			if seen[idx] {
				return fmt.Errorf("class %d block %d is on the free list twice", ci, idx)
			}
			seen[idx] = true
		}
	}
	return nil
}

// TestCrashAtEveryStepOwnsEveryBlock crashes at every device op of one
// Reserve→fill→Activate, of one Alloc and of one barrier free, and checks
// each image (checkImage): every set bit is named by a durable owner, and
// a filled block whose bit is set holds its fill, not zeros. The free's
// barrier allocates and commits a block, as a concurrent thread may: were
// the freed blocks put back before the barrier, it would take one that a
// pending word still names, and recovery would then free the block under
// its new, committed owner.
func TestCrashAtEveryStepOwnsEveryBlock(t *testing.T) {
	spec := []Class{{BlockSize: 64, Count: 8}, {BlockSize: 128, Count: 4}}
	meta := MetaSize(spec, 1)
	dev := nvram.New(meta + 1<<12)
	l := nvram.NewLayout(dev)
	region := l.Carve(meta)
	words := l.Carve(nvram.LineBytes)
	a, err := New(dev, region, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := owners{dev, words}
	h := a.NewHandle()
	fills := map[nvram.Offset]uint64{}
	steps := 0
	dev.SetHook(func(string, nvram.Offset) {
		steps++
		if err := checkImage(dev, region, words, spec, fills); err != nil {
			t.Fatalf("crash before step %d: %v", steps, err)
		}
	})
	alloc := func(size uint64, w int) nvram.Offset {
		b, err := h.Alloc(size, o.word(w))
		if err != nil {
			t.Fatal(err)
		}
		dev.Fence() // the caller's publishing fence
		return b
	}
	// One Reserve→fill→Activate of a two-line block, filled in both lines.
	b0, err := h.Reserve(128)
	if err != nil {
		t.Fatal(err)
	}
	fills[b0], fills[b0+nvram.LineBytes] = 0xf111, 0xf112
	dev.Store(b0, fills[b0])
	dev.Store(b0+nvram.LineBytes, fills[b0+nvram.LineBytes])
	h.Activate(b0, o.word(0))
	dev.Fence() // the caller's publishing fence
	activateSteps := steps
	b1 := alloc(64, 1)
	// One barrier free of both.
	err = a.FreeManyWithBarrier([]nvram.Offset{b0, b1}, func() {
		o.set(2, uint64(alloc(64, 2))|committed)
		o.set(0, 0)
		o.set(1, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	dev.SetHook(nil)
	if err := checkImage(dev, region, words, spec, nil); err != nil {
		t.Fatalf("after the free: %v", err)
	}
	if activateSteps == 0 || steps <= 2*activateSteps {
		t.Fatalf("checked %d crash points (%d in one handoff), want the whole sequence", steps, activateSteps)
	}
}

// TestActivateFenceOrder checks that Activate's fence separates the last
// flush of every block line and of the target from the bit's CAS. The
// simulator persists a line at Flush, so a crash image cannot show a
// missing fence; the hook reads the device's fence count at every op.
func TestActivateFenceOrder(t *testing.T) {
	dev, a, scratch := testEnv(t, smallSpec, 1)
	h := a.NewHandle()
	block, err := h.Reserve(256)
	if err != nil {
		t.Fatal(err)
	}
	for off := block; off < block+256; off += nvram.LineBytes {
		dev.Store(off, 7)
	}
	c, idx, _ := a.locate(block)
	bit := a.bitWord(c, idx)
	flushed := map[nvram.Offset]uint64{} // line → fence count at its last flush before the bit
	var bitFences uint64
	sawBit := false
	dev.SetHook(func(op string, off nvram.Offset) {
		switch f := dev.Stats().Fences; {
		case op == "cas" && off == bit:
			bitFences, sawBit = f, true
		case op == "flush" && !sawBit:
			flushed[off&^(nvram.LineBytes-1)] = f
		}
	})
	h.Activate(block, scratch.Base)
	dev.SetHook(nil)
	if !sawBit {
		t.Fatal("Activate set no bit")
	}
	lines := []nvram.Offset{scratch.Base}
	for off := block; off < block+256; off += nvram.LineBytes {
		lines = append(lines, off)
	}
	for _, line := range lines {
		f, ok := flushed[line]
		switch {
		case !ok:
			t.Errorf("line %#x was not flushed before the bit", line)
		case f >= bitFences:
			t.Errorf("no fence between line %#x's flush and the bit's CAS", line)
		}
	}
}

// TestReserveErrorPathsRestoreFreeBlocks forces each way a reservation
// can end without a handoff — Unreserve, a class that runs dry, a
// request no class holds — and checks that FreeBlocks comes back
// unchanged and that nothing durable moved.
func TestReserveErrorPathsRestoreFreeBlocks(t *testing.T) {
	dev, a, _ := testEnv(t, smallSpec, 1)
	h := a.NewHandle()
	before := a.FreeBlocks(64)
	flushes := dev.Stats().Flushes
	var held []nvram.Offset
	for {
		b, err := h.Reserve(64)
		if errors.Is(err, ErrOutOfMemory) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, b)
	}
	if n := a.FreeBlocks(64); n != 0 || uint64(len(held)) != before {
		t.Fatalf("reserved %d of %d blocks, %d left free", len(held), before, n)
	}
	if _, err := h.Reserve(1 << 20); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Reserve(1 MiB) = %v, want ErrTooLarge", err)
	}
	for _, b := range held {
		if a.Allocated(b) {
			t.Fatalf("reserved block %#x has its bit set", b)
		}
		a.Unreserve(b)
	}
	if n := a.FreeBlocks(64); n != before {
		t.Fatalf("FreeBlocks = %d after unreserving everything, want %d", n, before)
	}
	if n, _ := a.InUse(); n != 0 {
		t.Fatalf("%d blocks in use after unreserving everything", n)
	}
	if got := dev.Stats().Flushes; got != flushes {
		t.Fatalf("reserving and unreserving flushed %d lines", got-flushes)
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
	spec := []Class{
		{BlockSize: 64, Count: 1 << 10},
		{BlockSize: 128, Count: 1 << 9},
		{BlockSize: 256, Count: 1 << 8},
		{BlockSize: 1024, Count: 1 << 7},
		{BlockSize: 4096, Count: 1 << 6},
	}
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
