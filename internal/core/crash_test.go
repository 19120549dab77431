package core

import (
	"fmt"
	"testing"

	"pmwcas/internal/alloc"
	"pmwcas/internal/nvram"
)

// crashPanic is the sentinel the failpoint hook panics with.
type crashPanic struct{ step int }

// runUntilCrash executes fn with a failpoint armed at the k-th mutating
// device operation. It reports whether fn completed without reaching the
// failpoint (i.e., k is past the end of fn's operation trace).
func runUntilCrash(e *env, k int, fn func()) (completed bool) {
	step := 0
	e.dev.SetHook(func(op string, off nvram.Offset) {
		step++
		if step == k {
			panic(crashPanic{step: k})
		}
	})
	defer e.dev.SetHook(nil)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashPanic); !ok {
				panic(r) // a real bug, not our injected crash
			}
			completed = false
		}
	}()
	fn()
	return true
}

// TestCrashSweepAllOrNothing injects a crash at every mutating device
// operation of a 4-word PMwCAS (including its epoch-driven finalize) and
// verifies after recovery that the durable state is exactly all-old or
// all-new — never a mixture — and that the descriptor pool is fully
// reusable.
func TestCrashSweepAllOrNothing(t *testing.T) {
	oldVals := []uint64{11, 22, 33, 44}
	newVals := []uint64{111, 222, 333, 444}

	sawOld, sawNew := 0, 0
	for k := 1; ; k++ {
		e := newEnv(t, Persistent, false)
		addrs := e.initWords(oldVals...)
		h := e.pool.NewHandle()

		completed := runUntilCrash(e, k, func() {
			d, err := h.AllocateDescriptor(0)
			if err != nil {
				t.Fatalf("AllocateDescriptor: %v", err)
			}
			for i := range addrs {
				if err := d.AddWord(addrs[i], oldVals[i], newVals[i]); err != nil {
					t.Fatalf("AddWord: %v", err)
				}
			}
			if ok, _ := d.Execute(); !ok {
				t.Fatalf("Execute failed at sweep step %d", k)
			}
			// Force finalize into the swept window too.
			e.pool.Epochs().Advance()
			e.pool.Epochs().Collect()
		})

		st := e.reopen(t)
		h2 := e.pool.NewHandle()
		got := make([]uint64, len(addrs))
		for i, a := range addrs {
			got[i] = h2.Read(a)
		}
		isOld, isNew := true, true
		for i := range got {
			if got[i] != oldVals[i] {
				isOld = false
			}
			if got[i] != newVals[i] {
				isNew = false
			}
		}
		if !isOld && !isNew {
			t.Fatalf("crash at step %d: mixed state %v (recovery %+v)\n%s",
				k, got, st, e.pool.DumpDescriptor(0))
		}
		if isNew {
			sawNew++
		} else {
			sawOld++
		}

		// The pool must be fully reusable after recovery.
		if free := e.pool.FreeDescriptors(); free != testDescs {
			t.Fatalf("crash at step %d: %d free descriptors after recovery, want %d",
				k, free, testDescs)
		}
		// And a fresh operation must work.
		d, err := h2.AllocateDescriptor(0)
		if err != nil {
			t.Fatalf("crash at step %d: AllocateDescriptor after recovery: %v", k, err)
		}
		for i, a := range addrs {
			if err := d.AddWord(a, got[i], got[i]+1); err != nil {
				t.Fatalf("AddWord after recovery: %v", err)
			}
		}
		if ok, _ := d.Execute(); !ok {
			t.Fatalf("crash at step %d: post-recovery Execute failed", k)
		}

		if completed {
			t.Logf("sweep covered %d crash points: %d recovered old, %d recovered new",
				k-1, sawOld, sawNew)
			if sawOld == 0 || sawNew == 0 {
				t.Fatal("sweep did not exercise both roll-back and roll-forward")
			}
			return
		}
	}
}

// TestCrashSweepWithAllocation runs the full §5.2 flow — Reserve, fill,
// ReserveEntry, Execute with FreeOne — with a crash at every step, and
// verifies that every set bit's block holds its fill on the crashed
// image, and that recovery never leaks a block, never double-allocates
// one, and keeps the target words all-or-nothing.
func TestCrashSweepWithAllocation(t *testing.T) {
	const totalBlocks = 256 // matches newEnv's spec

	for k := 1; ; k++ {
		e := newEnv(t, Persistent, true)
		addrs := e.initWords(0, 0)
		h := e.pool.NewHandle()
		ah := e.alloc.NewHandle()

		// Pre-install two blocks so the swept operation replaces them
		// (exercising FreeOne's old-side frees as well).
		var oldBlocks [2]uint64
		fills := map[uint64]uint64{}
		for i := range addrs {
			d, _ := h.AllocateDescriptor(0)
			oldBlocks[i] = reserveFilled(t, ah, d, addrs[i], 0, PolicyFreeNewOnFailure, uint64(i+1))
			fills[oldBlocks[i]] = uint64(i + 1)
			if ok, _ := d.Execute(); !ok {
				t.Fatal("setup Execute failed")
			}
		}
		e.pool.Epochs().Advance()
		e.pool.Epochs().Collect()

		completed := runUntilCrash(e, k, func() {
			d, err := h.AllocateDescriptor(0)
			if err != nil {
				t.Fatalf("AllocateDescriptor: %v", err)
			}
			for i := range addrs {
				b, err := ah.Reserve(64)
				if err != nil {
					t.Fatalf("Reserve: %v", err)
				}
				fills[b] = uint64(i + 11)
				e.dev.Store(b, fills[b])
				if err := d.ReserveEntry(addrs[i], oldBlocks[i], b, PolicyFreeOne); err != nil {
					t.Fatalf("ReserveEntry: %v", err)
				}
			}
			if ok, _ := d.Execute(); !ok {
				t.Fatal("swept Execute failed")
			}
			e.pool.Epochs().Advance()
			e.pool.Epochs().Collect()
		})

		// On the crashed image, every set bit's block holds its fill.
		img := e.dev.CloneCrashed()
		ai, err := alloc.New(img, e.aReg, e.spec, 8)
		if err != nil {
			t.Fatal(err)
		}
		for b, fill := range fills {
			if ai.Allocated(b) && img.Load(b) != fill {
				t.Fatalf("crash at step %d: block %#x is allocated but holds %#x, not its fill %#x", k, b, img.Load(b), fill)
			}
		}

		e.reopen(t)
		h2 := e.pool.NewHandle()

		// All-or-nothing on the words.
		got := []uint64{h2.Read(addrs[0]), h2.Read(addrs[1])}
		isOld := got[0] == oldBlocks[0] && got[1] == oldBlocks[1]
		isNew := got[0] != oldBlocks[0] && got[1] != oldBlocks[1] &&
			got[0] != 0 && got[1] != 0
		if !isOld && !isNew {
			t.Fatalf("crash at step %d: mixed block state %#x vs old %#x", k, got, oldBlocks)
		}

		// Memory safety: exactly the two referenced blocks are live...
		blocks, _ := e.alloc.InUse()
		if blocks != 2 {
			t.Fatalf("crash at step %d: %d blocks in use, want 2 (state %v)", k, blocks, got)
		}
		// ...and every remaining block is allocatable exactly once, with
		// no overlap with the live ones.
		ah2 := e.alloc.NewHandle()
		seen := map[uint64]bool{got[0]: true, got[1]: true}
		for i := 0; i < totalBlocks-2; i++ {
			blk, err := ah2.Alloc(64, e.data.Base+64)
			if err != nil {
				t.Fatalf("crash at step %d: lost block(s): drain stopped at %d: %v", k, i, err)
			}
			if seen[blk] {
				t.Fatalf("crash at step %d: block %#x handed out twice", k, blk)
			}
			seen[blk] = true
		}

		if completed {
			t.Logf("allocation sweep covered %d crash points", k-1)
			return
		}
	}
}

// TestCrashBeforeExecuteReclaimsReservedMemory: a crash after a block has
// been handed to a descriptor that never executed leaves that block free
// after recovery (never-leak guarantee of §5.2): only Execute sets its
// bit.
func TestCrashBeforeExecuteReclaimsReservedMemory(t *testing.T) {
	e := newEnv(t, Persistent, true)
	addrs := e.initWords(0)
	h := e.pool.NewHandle()
	ah := e.alloc.NewHandle()

	d, _ := h.AllocateDescriptor(0)
	reserveFilled(t, ah, d, addrs[0], 0, PolicyFreeNewOnFailure, 1)
	// Crash here: the descriptor is staged but Free, its block's bit clear.
	e.reopen(t)
	blocks, _ := e.alloc.InUse()
	if blocks != 0 {
		t.Fatalf("reserved block leaked across crash: %d in use", blocks)
	}
}

// TestRecoveryIdempotent crashes *during recovery* (at every step of the
// recovery pass itself) and verifies a second recovery still converges to
// a consistent state.
func TestRecoveryIdempotent(t *testing.T) {
	for k := 1; ; k++ {
		e := newEnv(t, Persistent, false)
		addrs := e.initWords(1, 2, 3, 4)
		h := e.pool.NewHandle()

		// Crash mid-operation (step chosen inside Phase 1/2 by using a
		// fixed point measured to land between install and finalize).
		runUntilCrash(e, 25, func() {
			d, _ := h.AllocateDescriptor(0)
			for i, a := range addrs {
				d.AddWord(a, uint64(i+1), uint64(i+100))
			}
			d.Execute()
			e.pool.Epochs().Advance()
			e.pool.Epochs().Collect()
		})

		e.dev.SetHook(nil)
		e.dev.Crash()
		p2, err := NewPool(Config{
			Device: e.dev, Region: e.poolReg,
			DescriptorCount: testDescs, WordsPerDescriptor: testWords,
			Mode: Persistent,
		})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}

		// Crash during the recovery pass at step k.
		completed := runUntilCrash(&env{dev: e.dev}, k, func() {
			if _, err := p2.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
		})

		// Second, uninterrupted recovery.
		e.dev.Crash()
		p3, err := NewPool(Config{
			Device: e.dev, Region: e.poolReg,
			DescriptorCount: testDescs, WordsPerDescriptor: testWords,
			Mode: Persistent,
		})
		if err != nil {
			t.Fatalf("reopen 2: %v", err)
		}
		if _, err := p3.Recover(); err != nil {
			t.Fatalf("second Recover: %v", err)
		}
		h3 := p3.NewHandle()
		got := make([]uint64, len(addrs))
		isOld, isNew := true, true
		for i, a := range addrs {
			got[i] = h3.Read(a)
			if got[i] != uint64(i+1) {
				isOld = false
			}
			if got[i] != uint64(i+100) {
				isNew = false
			}
		}
		if !isOld && !isNew {
			t.Fatalf("recovery crash at step %d: mixed state %v", k, got)
		}
		if free := p3.FreeDescriptors(); free != testDescs {
			t.Fatalf("recovery crash at step %d: %d free descriptors", k, free)
		}

		if completed {
			t.Logf("recovery-crash sweep covered %d steps", k-1)
			return
		}
	}
}

// TestCrashSweepFailedOperation sweeps crashes across a PMwCAS that is
// destined to fail (stale expected value): recovery must always restore
// the pre-operation values.
func TestCrashSweepFailedOperation(t *testing.T) {
	for k := 1; ; k++ {
		e := newEnv(t, Persistent, false)
		addrs := e.initWords(5, 6)
		h := e.pool.NewHandle()
		completed := runUntilCrash(e, k, func() {
			d, _ := h.AllocateDescriptor(0)
			d.AddWord(addrs[0], 5, 50)
			d.AddWord(addrs[1], 999, 60) // will fail
			if ok, _ := d.Execute(); ok {
				t.Fatal("doomed Execute succeeded")
			}
			e.pool.Epochs().Advance()
			e.pool.Epochs().Collect()
		})
		e.reopen(t)
		h2 := e.pool.NewHandle()
		if got := h2.Read(addrs[0]); got != 5 {
			t.Fatalf("crash at step %d: word 0 = %d, want 5", k, got)
		}
		if got := h2.Read(addrs[1]); got != 6 {
			t.Fatalf("crash at step %d: word 1 = %d, want 6", k, got)
		}
		if completed {
			t.Logf("failed-op sweep covered %d crash points", k-1)
			return
		}
	}
}

// TestCrashDuringPhase2ExposedValue reproduces the paper's precommit
// argument (§4.2.2): a reader may observe a new value the moment Phase 2
// installs it; the status must already be durable so recovery rolls
// forward, never back. We simulate the reader by crashing right after
// the first Phase-2 CAS and checking recovery completes the operation.
func TestCrashDuringPhase2ExposedValue(t *testing.T) {
	// Find the step of the first Phase-2 target-word CAS by scanning the
	// trace: it is the first CAS on a data word whose new value is a
	// final (non-descriptor) value after the status flip. Rather than
	// hard-code a step, sweep and assert the directional invariant: once
	// ANY durable data word holds a new value, recovery must roll
	// forward.
	newVals := []uint64{70, 80}
	for k := 1; ; k++ {
		e := newEnv(t, Persistent, false)
		addrs := e.initWords(7, 8)
		h := e.pool.NewHandle()
		completed := runUntilCrash(e, k, func() {
			d, _ := h.AllocateDescriptor(0)
			d.AddWord(addrs[0], 7, newVals[0])
			d.AddWord(addrs[1], 8, newVals[1])
			d.Execute()
		})
		// Inspect the durable image *before* recovery.
		exposed := false
		for i, a := range addrs {
			if e.dev.PersistedLoad(a)&AddressMask == newVals[i] {
				exposed = true
			}
		}
		e.reopen(t)
		h2 := e.pool.NewHandle()
		if exposed {
			for i, a := range addrs {
				if got := h2.Read(a); got != newVals[i] {
					t.Fatalf("crash at step %d: new value was durable pre-crash but recovery rolled back (word %d = %d)",
						k, i, got)
				}
			}
		}
		if completed {
			return
		}
	}
}

func TestRecoverOnVolatilePoolFails(t *testing.T) {
	e := newEnv(t, Volatile, false)
	if _, err := e.pool.Recover(); err == nil {
		t.Fatal("Recover on volatile pool succeeded")
	}
}

// Sanity: the sweep helper itself terminates and distinguishes completion.
func TestRunUntilCrashHelper(t *testing.T) {
	e := newEnv(t, Persistent, false)
	if completed := runUntilCrash(e, 1, func() { e.dev.Store(e.data.Base, 1) }); completed {
		t.Fatal("crash at step 1 reported completion")
	}
	if completed := runUntilCrash(e, 100, func() { e.dev.Store(e.data.Base, 1) }); !completed {
		t.Fatal("uncrashed run reported failure")
	}
	if e.dev.Load(e.data.Base) != 1 {
		t.Fatal("second run's store lost")
	}
}

// Ensure the sweep harness panics through non-sentinel panics.
func TestRunUntilCrashPropagatesRealPanics(t *testing.T) {
	e := newEnv(t, Persistent, false)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("real panic swallowed")
		} else if fmt.Sprint(r) != "boom" {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	runUntilCrash(e, 1000, func() { panic("boom") })
}
