package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"pmwcas/internal/alloc"
	"pmwcas/internal/nvram"
)

// env bundles a device, a pool, and a scratch data region for tests.
type env struct {
	dev     *nvram.Device
	pool    *Pool
	alloc   *alloc.Allocator
	data    nvram.Region
	poolReg nvram.Region
	aReg    nvram.Region
	spec    []alloc.Class
}

const (
	testDescs = 64
	testWords = 4
)

// newEnv builds a fresh environment. withAlloc adds a persistent allocator
// wired into the pool's recycling policies.
func newEnv(t testing.TB, mode Mode, withAlloc bool) *env {
	t.Helper()
	e := &env{spec: []alloc.Class{{BlockSize: 64, Count: 256}}}
	poolBytes := PoolSize(testDescs, testWords)
	aBytes := alloc.MetaSize(e.spec, 8)
	e.dev = nvram.New(poolBytes + aBytes + 1<<16)
	l := nvram.NewLayout(e.dev)
	e.poolReg = l.Carve(poolBytes)
	e.aReg = l.Carve(aBytes)
	e.data = l.Carve(1 << 12)

	var a *alloc.Allocator
	if withAlloc {
		var err error
		a, err = alloc.New(e.dev, e.aReg, e.spec, 8)
		if err != nil {
			t.Fatalf("alloc.New: %v", err)
		}
		e.alloc = a
	}
	p, err := NewPool(Config{
		Device:             e.dev,
		Region:             e.poolReg,
		DescriptorCount:    testDescs,
		WordsPerDescriptor: testWords,
		Mode:               mode,
		Allocator:          a,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	e.pool = p
	return e
}

// reopen simulates restart: crash the device, rebuild the environment
// over the same regions, run allocator + pool recovery.
func (e *env) reopen(t testing.TB) RecoveryStats {
	t.Helper()
	e.dev.SetHook(nil)
	e.dev.Crash()
	if e.alloc != nil {
		a, err := alloc.New(e.dev, e.aReg, e.spec, 8)
		if err != nil {
			t.Fatalf("alloc reopen: %v", err)
		}
		a.Recover()
		e.alloc = a
	}
	p, err := NewPool(Config{
		Device:             e.dev,
		Region:             e.poolReg,
		DescriptorCount:    testDescs,
		WordsPerDescriptor: testWords,
		Mode:               Persistent,
		Allocator:          e.alloc,
	})
	if err != nil {
		t.Fatalf("pool reopen: %v", err)
	}
	st, err := p.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	e.pool = p
	return st
}

// initWords durably sets data words [0..n) to vals.
func (e *env) initWords(vals ...uint64) []nvram.Offset {
	addrs := make([]nvram.Offset, len(vals))
	for i, v := range vals {
		addrs[i] = e.data.Base + nvram.Offset(i)*nvram.WordSize
		e.dev.Store(addrs[i], v)
	}
	e.dev.FlushAll()
	return addrs
}

func TestExecuteSuccessAllWords(t *testing.T) {
	for _, mode := range []Mode{Persistent, Volatile} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv(t, mode, false)
			addrs := e.initWords(10, 20, 30, 40)
			h := e.pool.NewHandle()
			d, err := h.AllocateDescriptor(0)
			if err != nil {
				t.Fatalf("AllocateDescriptor: %v", err)
			}
			for i, a := range addrs {
				if err := d.AddWord(a, uint64(10*(i+1)), uint64(100*(i+1))); err != nil {
					t.Fatalf("AddWord: %v", err)
				}
			}
			ok, err := d.Execute()
			if err != nil || !ok {
				t.Fatalf("Execute = %v, %v; want true", ok, err)
			}
			for i, a := range addrs {
				if got := h.Read(a); got != uint64(100*(i+1)) {
					t.Fatalf("word %d = %d, want %d", i, got, 100*(i+1))
				}
			}
			if s := e.pool.Stats(); s.Succeeded != 1 || s.Failed != 0 {
				t.Fatalf("stats = %+v", s)
			}
		})
	}
}

func TestExecuteFailureLeavesAllWordsUnchanged(t *testing.T) {
	for _, mode := range []Mode{Persistent, Volatile} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv(t, mode, false)
			addrs := e.initWords(1, 2, 3)
			h := e.pool.NewHandle()
			d, _ := h.AllocateDescriptor(0)
			d.AddWord(addrs[0], 1, 11)
			d.AddWord(addrs[1], 999, 22) // wrong expected value
			d.AddWord(addrs[2], 3, 33)
			ok, err := d.Execute()
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			if ok {
				t.Fatal("Execute succeeded with a stale expected value")
			}
			want := []uint64{1, 2, 3}
			for i, a := range addrs {
				if got := h.Read(a); got != want[i] {
					t.Fatalf("word %d = %d, want %d (failure must be all-or-nothing)", i, got, want[i])
				}
			}
		})
	}
}

func TestExecuteSingleWordDegeneratesToCAS(t *testing.T) {
	e := newEnv(t, Persistent, false)
	addrs := e.initWords(5)
	h := e.pool.NewHandle()
	d, _ := h.AllocateDescriptor(0)
	d.AddWord(addrs[0], 5, 6)
	if ok, _ := d.Execute(); !ok {
		t.Fatal("single-word Execute failed")
	}
	if got := h.Read(addrs[0]); got != 6 {
		t.Fatalf("got %d, want 6", got)
	}
}

// TestExecuteFlushBill pins what an uncontended Execute persists on a
// descriptor with room for 15 entries: the entry lines its count covers,
// the header, each distinct target line once before the decision, the
// status, and each distinct target line once after it. No flush finds a
// clean line, and the per-op histograms charge exactly what the device
// counted.
func TestExecuteFlushBill(t *testing.T) {
	const words = 15
	for _, tc := range []struct {
		name    string
		offs    []nvram.Offset // target words, from the data region's base
		flushes uint64
	}{
		// entry lines + header + target lines + status + target lines
		{"1 entry", []nvram.Offset{0}, 1 + 1 + 1 + 1 + 1},
		{"2 entries on one line", []nvram.Offset{0, 8}, 1 + 1 + 1 + 1 + 1},
		{"2 entries on two lines", []nvram.Offset{0, nvram.LineBytes}, 1 + 1 + 2 + 1 + 2},
		{"4 entries on three lines", []nvram.Offset{2 * nvram.LineBytes, 8, nvram.LineBytes, 0}, 2 + 1 + 3 + 1 + 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := nvram.New(1 << 16)
			l := nvram.NewLayout(dev)
			p, err := NewPool(Config{Device: dev, Region: l.Carve(PoolSize(4, words)),
				DescriptorCount: 4, WordsPerDescriptor: words, Mode: Persistent})
			if err != nil {
				t.Fatal(err)
			}
			data := l.Carve(1 << 10)
			h := p.NewHandle()
			d, err := h.AllocateDescriptor(0)
			if err != nil {
				t.Fatal(err)
			}
			for i, off := range tc.offs {
				if err := d.AddWord(data.Base+off, 0, uint64(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			before := dev.Stats()
			flushObs, fenceObs := mFlushesPerOp.Snapshot(), mFencesPerOp.Snapshot()
			if ok, err := d.Execute(); !ok || err != nil {
				t.Fatalf("Execute = %v, %v", ok, err)
			}
			after := dev.Stats()
			if got := after.Flushes - before.Flushes; got != tc.flushes {
				t.Errorf("device flushes = %d, want %d", got, tc.flushes)
			}
			if got := after.Fences - before.Fences; got != 2 {
				t.Errorf("device fences = %d, want 2", got)
			}
			if got := after.CleanFlushes - before.CleanFlushes; got != 0 {
				t.Errorf("clean flushes = %d, want 0", got)
			}
			if got := mFlushesPerOp.Snapshot().Sum - flushObs.Sum; got != after.Flushes-before.Flushes {
				t.Errorf("core_pmwcas_flushes_per_op observed %d, device counted %d", got, after.Flushes-before.Flushes)
			}
			if got := mFencesPerOp.Snapshot().Sum - fenceObs.Sum; got != after.Fences-before.Fences {
				t.Errorf("core_pmwcas_fences_per_op observed %d, device counted %d", got, after.Fences-before.Fences)
			}
			for i, off := range tc.offs {
				if got := h.Read(data.Base + off); got != uint64(i+1) {
					t.Errorf("word %d = %d, want %d", i, got, i+1)
				}
			}
		})
	}
}

// TestExecuteDeviceOpBill pins what a whole uncontended PMwCAS costs the
// device, from AllocateDescriptor through the finalize that frees its
// slot, with n entries on n distinct target lines. The owner loads only
// what it cannot know from its DRAM copy of the entries: the slot's free
// status, the Phase-1 status, each target's install load and RDCSS status
// check, and the status once decided — 2n + 3 loads, where re-reading its
// own entries off the device cost 13/21/30/40. Stores, CASes, flushes and
// fences are the NVRAM image's bill and stay exactly where they were.
func TestExecuteDeviceOpBill(t *testing.T) {
	const slots, rounds = 15, 320
	for _, tc := range []struct {
		n                              int
		stores, cases, flushes, fences uint64
	}{
		{1, 9, 8, 6, 3},
		{2, 14, 14, 8, 3},
		{3, 19, 20, 11, 3},
		{4, 24, 26, 13, 3},
	} {
		t.Run(fmt.Sprintf("%d entries", tc.n), func(t *testing.T) {
			dev := nvram.New(1 << 16)
			l := nvram.NewLayout(dev)
			p, err := NewPool(Config{Device: dev, Region: l.Carve(PoolSize(slots, testWords)),
				DescriptorCount: slots, WordsPerDescriptor: testWords, Mode: Persistent})
			if err != nil {
				t.Fatal(err)
			}
			data := l.Carve(testWords * nvram.LineBytes)
			h := p.NewHandle()
			before := dev.Stats()
			for r := uint64(0); r < rounds; r++ {
				d, err := h.AllocateDescriptor(0)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < tc.n; i++ {
					if err := d.AddWord(data.Base+uint64(i)*nvram.LineBytes, r, r+1); err != nil {
						t.Fatal(err)
					}
				}
				if ok, err := d.Execute(); !ok || err != nil {
					t.Fatalf("round %d: Execute = %v, %v", r, ok, err)
				}
			}
			// Finalize every retired slot, so each round is billed whole.
			for p.Epochs().Stats().Pending > 0 {
				p.ReclaimPause()
			}
			after := dev.Stats()
			per := func(a, b uint64) float64 { return float64(a-b) / rounds }
			if got, max := per(after.Loads, before.Loads), float64(2*tc.n+3); got > max {
				t.Errorf("loads = %.2f per PMwCAS, budget %v", got, max)
			}
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"stores", per(after.Stores, before.Stores), float64(tc.stores)},
				{"CASes", per(after.CASes, before.CASes), float64(tc.cases)},
				{"flushes", per(after.Flushes, before.Flushes), float64(tc.flushes)},
				{"fences", per(after.Fences, before.Fences), float64(tc.fences)},
			} {
				if c.got != c.want {
					t.Errorf("%s = %.2f per PMwCAS, want %v", c.name, c.got, c.want)
				}
			}
		})
	}
}

func TestPersistentExecuteIsDurable(t *testing.T) {
	e := newEnv(t, Persistent, false)
	addrs := e.initWords(10, 20)
	h := e.pool.NewHandle()
	d, _ := h.AllocateDescriptor(0)
	d.AddWord(addrs[0], 10, 11)
	d.AddWord(addrs[1], 20, 21)
	if ok, _ := d.Execute(); !ok {
		t.Fatal("Execute failed")
	}
	// A successful PMwCAS must survive an immediate crash even if no
	// reader ever touched the words again.
	st := e.reopen(t)
	h2 := e.pool.NewHandle()
	if got := h2.Read(addrs[0]); got != 11 {
		t.Fatalf("word 0 after crash = %d, want 11 (st=%+v)", got, st)
	}
	if got := h2.Read(addrs[1]); got != 21 {
		t.Fatalf("word 1 after crash = %d, want 21", got)
	}
}

func TestReadNeverReturnsFlaggedValue(t *testing.T) {
	e := newEnv(t, Persistent, false)
	addrs := e.initWords(7)
	h := e.pool.NewHandle()
	// Manually plant a dirty value: Read must persist and strip it.
	e.dev.Store(addrs[0], 7|DirtyFlag)
	if got := h.Read(addrs[0]); got != 7 {
		t.Fatalf("Read = %#x, want 7", got)
	}
	if got := e.dev.PersistedLoad(addrs[0]); got&AddressMask != 7 {
		t.Fatalf("Read did not persist the dirty word: %#x", got)
	}
	if got := e.dev.Load(addrs[0]); got != 7 {
		t.Fatalf("dirty bit not cleared: %#x", got)
	}
}

func TestAddWordValidation(t *testing.T) {
	e := newEnv(t, Persistent, false)
	addrs := e.initWords(1, 2, 3, 4, 5)
	h := e.pool.NewHandle()
	d, _ := h.AllocateDescriptor(0)

	if err := d.AddWord(addrs[0], DirtyFlag, 0); !errors.Is(err, ErrFlagBits) {
		t.Fatalf("flagged old accepted: %v", err)
	}
	if err := d.AddWord(addrs[0], 0, MwCASFlag); !errors.Is(err, ErrFlagBits) {
		t.Fatalf("flagged new accepted: %v", err)
	}
	if err := d.AddWord(3, 0, 0); err == nil {
		t.Fatal("misaligned address accepted")
	}
	if err := d.AddWord(addrs[0], 1, 2); err != nil {
		t.Fatalf("AddWord: %v", err)
	}
	if err := d.AddWord(addrs[0], 1, 3); !errors.Is(err, ErrDuplicateAddress) {
		t.Fatalf("duplicate address accepted: %v", err)
	}
	for i := 1; i < testWords; i++ {
		if err := d.AddWord(addrs[i], uint64(i+1), 9); err != nil {
			t.Fatalf("AddWord %d: %v", i, err)
		}
	}
	if err := d.AddWord(addrs[4], 5, 9); !errors.Is(err, ErrDescriptorFull) {
		t.Fatalf("over-capacity AddWord accepted: %v", err)
	}
	d.Discard()
	//lint:allow descflow — exercises the ErrDescriptorDone guard on a retired descriptor
	if err := d.AddWord(addrs[4], 5, 9); !errors.Is(err, ErrDescriptorDone) {
		t.Fatalf("AddWord after Discard accepted: %v", err)
	}
	if _, err := d.Execute(); !errors.Is(err, ErrDescriptorDone) {
		t.Fatalf("Execute after Discard: %v", err)
	}
}

func TestRemoveWord(t *testing.T) {
	e := newEnv(t, Persistent, false)
	addrs := e.initWords(1, 2, 3)
	h := e.pool.NewHandle()
	d, _ := h.AllocateDescriptor(0)
	d.AddWord(addrs[0], 1, 10)
	d.AddWord(addrs[1], 2, 20)
	d.AddWord(addrs[2], 3, 30)
	if err := d.RemoveWord(addrs[1]); err != nil {
		t.Fatalf("RemoveWord: %v", err)
	}
	if err := d.RemoveWord(addrs[1]); !errors.Is(err, ErrAddressNotFound) {
		t.Fatalf("removing absent word: %v", err)
	}
	if d.WordCount() != 2 {
		t.Fatalf("WordCount = %d, want 2", d.WordCount())
	}
	if ok, _ := d.Execute(); !ok {
		t.Fatal("Execute failed")
	}
	if got := h.Read(addrs[1]); got != 2 {
		t.Fatalf("removed word modified: %d", got)
	}
	if got := h.Read(addrs[0]); got != 10 {
		t.Fatalf("word 0 = %d, want 10", got)
	}
	if got := h.Read(addrs[2]); got != 30 {
		t.Fatalf("word 2 = %d, want 30", got)
	}
}

func TestDiscardTouchesNothing(t *testing.T) {
	e := newEnv(t, Persistent, false)
	addrs := e.initWords(1)
	h := e.pool.NewHandle()
	d, _ := h.AllocateDescriptor(0)
	d.AddWord(addrs[0], 1, 2)
	if err := d.Discard(); err != nil {
		t.Fatalf("Discard: %v", err)
	}
	if got := h.Read(addrs[0]); got != 1 {
		t.Fatalf("Discard modified a word: %d", got)
	}
	if s := e.pool.Stats(); s.Discarded != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDescriptorReuseAfterEpochDrain(t *testing.T) {
	e := newEnv(t, Persistent, false)
	addrs := e.initWords(0)
	h := e.pool.NewHandle()
	// Run far more operations than there are descriptors: reclamation
	// must recycle them.
	for i := 0; i < testDescs*4; i++ {
		d, err := h.AllocateDescriptor(0)
		if err != nil {
			t.Fatalf("AllocateDescriptor after %d ops: %v", i, err)
		}
		if err := d.AddWord(addrs[0], uint64(i), uint64(i+1)); err != nil {
			t.Fatalf("AddWord: %v", err)
		}
		if ok, _ := d.Execute(); !ok {
			t.Fatalf("Execute %d failed", i)
		}
	}
	if got := h.Read(addrs[0]); got != testDescs*4 {
		t.Fatalf("counter = %d, want %d", got, testDescs*4)
	}
}

func TestPoolExhaustion(t *testing.T) {
	e := newEnv(t, Persistent, false)
	h := e.pool.NewHandle()
	var ds []*Descriptor
	for {
		d, err := h.AllocateDescriptor(0)
		if err != nil {
			if !errors.Is(err, ErrPoolExhausted) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		ds = append(ds, d)
	}
	if len(ds) != testDescs {
		t.Fatalf("allocated %d descriptors, want %d", len(ds), testDescs)
	}
	// Discarding makes them allocatable again (after the epoch allows).
	for _, d := range ds {
		d.Discard()
	}
	e.pool.Epochs().Advance()
	e.pool.Epochs().Collect()
	if _, err := h.AllocateDescriptor(0); err != nil {
		t.Fatalf("AllocateDescriptor after recycle: %v", err)
	}
}

func TestFreeOnePolicyFreesOldOnSuccess(t *testing.T) {
	e := newEnv(t, Persistent, true)
	addrs := e.initWords(0)
	h := e.pool.NewHandle()
	ah := e.alloc.NewHandle()

	// Install block A at the word, then PMwCAS it to block B with FreeOne.
	d0, _ := h.AllocateDescriptor(0)
	field, err := d0.ReserveEntry(addrs[0], 0, PolicyFreeNewOnFailure)
	if err != nil {
		t.Fatalf("ReserveEntry: %v", err)
	}
	blockA, err := ah.Alloc(64, field)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if ok, _ := d0.Execute(); !ok {
		t.Fatal("install A failed")
	}

	d1, _ := h.AllocateDescriptor(0)
	field1, _ := d1.ReserveEntry(addrs[0], blockA, PolicyFreeOne)
	blockB, err := ah.Alloc(64, field1)
	if err != nil {
		t.Fatalf("Alloc B: %v", err)
	}
	if ok, _ := d1.Execute(); !ok {
		t.Fatal("swap to B failed")
	}
	e.pool.Epochs().Advance()
	e.pool.Epochs().Collect()

	// Old block A must have been freed; B is live.
	blocks, _ := e.alloc.InUse()
	if blocks != 1 {
		t.Fatalf("blocks in use = %d, want 1 (A freed, B live)", blocks)
	}
	if got := h.Read(addrs[0]); got != blockB {
		t.Fatalf("word = %#x, want block B %#x", got, blockB)
	}
	// Freeing A again must fail: it is already free.
	if err := e.alloc.Free(blockA); err == nil {
		t.Fatal("block A was not freed by the policy")
	}
}

func TestFreeNewOnFailurePolicy(t *testing.T) {
	e := newEnv(t, Persistent, true)
	addrs := e.initWords(123)
	h := e.pool.NewHandle()
	ah := e.alloc.NewHandle()

	d, _ := h.AllocateDescriptor(0)
	field, _ := d.ReserveEntry(addrs[0], 999 /* stale */, PolicyFreeNewOnFailure)
	if _, err := ah.Alloc(64, field); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if ok, _ := d.Execute(); ok {
		t.Fatal("Execute with stale expected succeeded")
	}
	e.pool.Epochs().Advance()
	e.pool.Epochs().Collect()
	blocks, _ := e.alloc.InUse()
	if blocks != 0 {
		t.Fatalf("blocks in use = %d, want 0 (new freed on failure)", blocks)
	}
}

func TestDiscardFreesReservedMemory(t *testing.T) {
	e := newEnv(t, Persistent, true)
	addrs := e.initWords(0)
	h := e.pool.NewHandle()
	ah := e.alloc.NewHandle()
	d, _ := h.AllocateDescriptor(0)
	field, _ := d.ReserveEntry(addrs[0], 0, PolicyFreeNewOnFailure)
	if _, err := ah.Alloc(64, field); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	d.Discard()
	e.pool.Epochs().Advance()
	e.pool.Epochs().Collect()
	blocks, _ := e.alloc.InUse()
	if blocks != 0 {
		t.Fatalf("blocks in use after Discard = %d, want 0", blocks)
	}
}

func TestCustomFinalizeCallback(t *testing.T) {
	e := newEnv(t, Persistent, false)
	addrs := e.initWords(1)
	var got atomic.Int32
	err := e.pool.RegisterCallback(7, func(v DescriptorView, succeeded bool) {
		if succeeded && v.WordCount() == 1 && v.Old(0) == 1 && v.New(0) == 2 {
			got.Store(1)
		}
	})
	if err != nil {
		t.Fatalf("RegisterCallback: %v", err)
	}
	if err := e.pool.RegisterCallback(7, func(DescriptorView, bool) {}); err == nil {
		t.Fatal("duplicate callback id accepted")
	}
	if err := e.pool.RegisterCallback(0, func(DescriptorView, bool) {}); err == nil {
		t.Fatal("callback id 0 accepted")
	}
	h := e.pool.NewHandle()
	d, _ := h.AllocateDescriptor(7)
	d.AddWord(addrs[0], 1, 2)
	if ok, _ := d.Execute(); !ok {
		t.Fatal("Execute failed")
	}
	e.pool.Epochs().Advance()
	e.pool.Epochs().Collect()
	if got.Load() != 1 {
		t.Fatal("finalize callback never ran (or saw wrong state)")
	}
}

func TestNewPoolValidation(t *testing.T) {
	dev := nvram.New(1 << 16)
	l := nvram.NewLayout(dev)
	reg := l.Carve(1 << 12)
	cases := []Config{
		{Region: reg, DescriptorCount: 1, WordsPerDescriptor: 1},                  // nil device
		{Device: dev, Region: reg, DescriptorCount: 0, WordsPerDescriptor: 1},     // zero descs
		{Device: dev, Region: reg, DescriptorCount: 1, WordsPerDescriptor: 0},     // zero words
		{Device: dev, Region: reg, DescriptorCount: 1, WordsPerDescriptor: 65},    // too many words
		{Device: dev, Region: reg, DescriptorCount: 10000, WordsPerDescriptor: 8}, // region too small
	}
	for i, cfg := range cases {
		if _, err := NewPool(cfg); err == nil {
			t.Errorf("case %d: NewPool accepted invalid config", i)
		}
	}
}

// Conservation stress: concurrent transfers between words must preserve
// the total sum, in both modes, under the race detector.
func TestConcurrentTransfersConserveSum(t *testing.T) {
	for _, mode := range []Mode{Persistent, Volatile} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv(t, mode, false)
			const nWords = 8
			const perWord = 1000
			vals := make([]uint64, nWords)
			for i := range vals {
				vals[i] = perWord
			}
			addrs := e.initWords(vals...)

			const goroutines = 4
			const opsPer = 300
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					h := e.pool.NewHandle()
					for i := 0; i < opsPer; i++ {
						from := rng.Intn(nWords)
						to := rng.Intn(nWords)
						if from == to {
							continue
						}
						for {
							vf := h.Read(addrs[from])
							vt := h.Read(addrs[to])
							if vf == 0 {
								break // can't go negative; pick new words
							}
							d, err := h.AllocateDescriptor(0)
							if err != nil {
								continue // pool pressure; retry
							}
							d.AddWord(addrs[from], vf, vf-1)
							d.AddWord(addrs[to], vt, vt+1)
							if ok, _ := d.Execute(); ok {
								break
							}
						}
					}
				}(int64(g) + 1)
			}
			wg.Wait()

			h := e.pool.NewHandle()
			var sum uint64
			for _, a := range addrs {
				sum += h.Read(a)
			}
			if sum != nWords*perWord {
				t.Fatalf("sum = %d, want %d: transfers lost or duplicated value", sum, nWords*perWord)
			}

			if mode == Persistent {
				// The invariant must also hold in the durable image.
				e.reopen(t)
				h = e.pool.NewHandle()
				sum = 0
				for _, a := range addrs {
					sum += h.Read(a)
				}
				if sum != nWords*perWord {
					t.Fatalf("durable sum = %d, want %d", sum, nWords*perWord)
				}
			}
		})
	}
}

// Overlapping PMwCAS operations on the same words force the help-along
// paths (descriptor encounters, RDCSS completion by peers).
func TestContendedSameWordsHelping(t *testing.T) {
	e := newEnv(t, Persistent, false)
	addrs := e.initWords(0, 0, 0, 0)
	const goroutines = 4
	const increments = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := e.pool.NewHandle()
			for i := 0; i < increments; i++ {
				for {
					v0 := h.Read(addrs[0])
					v1 := h.Read(addrs[1])
					v2 := h.Read(addrs[2])
					v3 := h.Read(addrs[3])
					d, err := h.AllocateDescriptor(0)
					if err != nil {
						continue
					}
					d.AddWord(addrs[0], v0, v0+1)
					d.AddWord(addrs[1], v1, v1+1)
					d.AddWord(addrs[2], v2, v2+1)
					d.AddWord(addrs[3], v3, v3+1)
					if ok, _ := d.Execute(); ok {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	h := e.pool.NewHandle()
	for i, a := range addrs {
		if got := h.Read(a); got != goroutines*increments {
			t.Fatalf("word %d = %d, want %d: atomicity across words violated",
				i, got, goroutines*increments)
		}
	}
}

func TestSpaceAnalysis(t *testing.T) {
	e := newEnv(t, Persistent, false)
	per, total := e.pool.SpaceAnalysis()
	if per == 0 || total != per*uint64(testDescs) {
		t.Fatalf("SpaceAnalysis = (%d, %d)", per, total)
	}
	// Appendix-B shape: header (2 words) + 4 words/entry, line padded.
	want := uint64((2 + 4*testWords) * 8)
	want = (want + nvram.LineBytes - 1) / nvram.LineBytes * nvram.LineBytes
	if per != want {
		t.Fatalf("bytes per descriptor = %d, want %d", per, want)
	}
}

func TestDumpDescriptor(t *testing.T) {
	e := newEnv(t, Persistent, false)
	addrs := e.initWords(1)
	h := e.pool.NewHandle()
	d, _ := h.AllocateDescriptor(0)
	d.AddWord(addrs[0], 1, 2)
	s := e.pool.DumpDescriptor(d.idx)
	if s == "" {
		t.Fatal("empty dump")
	}
	d.Discard()
}

func BenchmarkPMwCAS4Words(b *testing.B) {
	for _, mode := range []Mode{Volatile, Persistent} {
		b.Run(mode.String(), func(b *testing.B) {
			e := newEnv(b, mode, false)
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
		})
	}
}
