package core

import (
	"fmt"
	"testing"

	"pmwcas/internal/alloc"
	"pmwcas/internal/epoch"
	"pmwcas/internal/nvram"
)

// runEnv holds k words, each naming a live 64-byte block, and the guard
// that pins the epoch while a run of descriptors is staged.
type runEnv struct {
	*env
	h     *Handle
	ah    *alloc.Handle
	words []nvram.Offset
	pin   *epoch.Guard
}

// newRunEnv installs a block into each of k words and finalizes those
// installs, so the next sweep finalizes only what stageRun retires.
func newRunEnv(t testing.TB, k int) *runEnv {
	t.Helper()
	e := newEnv(t, Persistent, true)
	r := &runEnv{env: e, h: e.pool.NewHandle(), ah: e.alloc.NewHandle(),
		words: e.initWords(make([]uint64, k)...), pin: e.pool.Epochs().Register()}
	for i, w := range r.words {
		d, _ := r.h.AllocateDescriptor(0)
		reserveFilled(t, r.ah, d, w, 0, PolicyFreeNewOnFailure, uint64(i+1))
		if ok, err := d.Execute(); !ok || err != nil {
			t.Fatalf("setup Execute = %v, %v", ok, err)
		}
	}
	for e.pool.Epochs().Stats().Pending > 0 {
		e.pool.ReclaimPause()
	}
	return r
}

// stageRun replaces each word's block with a fresh one, PolicyFreeOne,
// while a guard pins the epoch, so the k descriptors wait for the next
// sweep as one run whose victims are the replaced blocks. With
// victims false the descriptors swap plain words instead and free
// nothing.
func (r *runEnv) stageRun(t testing.TB, victims bool) {
	t.Helper()
	r.pin.Enter()
	defer r.pin.Exit()
	for i, w := range r.words {
		d, err := r.h.AllocateDescriptor(0)
		if err != nil {
			t.Fatal(err)
		}
		old := r.dev.Load(w)
		if victims {
			b, err := r.ah.Reserve(64)
			if err != nil {
				t.Fatal(err)
			}
			r.dev.Store(b, uint64(i+1))
			err = d.ReserveEntry(w, old, b, PolicyFreeOne)
		} else {
			err = d.AddWord(w, old, old+1)
		}
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := d.Execute(); !ok || err != nil {
			t.Fatalf("Execute = %v, %v", ok, err)
		}
	}
}

// sweep runs the epoch sweep that finalizes the staged run.
func (r *runEnv) sweep() int {
	r.pool.Epochs().Advance()
	return r.pool.Epochs().Collect()
}

// TestRetireRunBill pins what a run of k finalized descriptors costs the
// device: one flush per header, one per distinct bitmap line the victims'
// bits share, and two fences in all (the clears', the resets'), or one
// flush per header and one fence with no victims. Finalized one at a
// time, the same run cost one flush per header and per victim bit, and a
// fence or two per descriptor.
func TestRetireRunBill(t *testing.T) {
	for _, k := range []int{1, 3, 8} {
		for _, victims := range []bool{true, false} {
			t.Run(fmt.Sprintf("k=%d victims=%v", k, victims), func(t *testing.T) {
				r := newRunEnv(t, k)
				r.stageRun(t, victims)
				free, before := r.pool.FreeDescriptors(), r.dev.Stats()
				if n := r.sweep(); n != k {
					t.Fatalf("sweep finalized %d descriptors, want %d", n, k)
				}
				after := r.dev.Stats()
				// The 256 blocks' bits fill one bitmap line.
				flushes, fences, stores, cases := k, 1, 2*k, 0
				if victims {
					flushes, fences, cases = k+1, 2, k
				}
				for _, c := range []struct {
					name      string
					got, want uint64
				}{
					{"flushes", after.Flushes - before.Flushes, uint64(flushes)},
					{"fences", after.Fences - before.Fences, uint64(fences)},
					{"stores", after.Stores - before.Stores, uint64(stores)},
					{"CASes", after.CASes - before.CASes, uint64(cases)},
				} {
					if c.got != c.want {
						t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
					}
				}
				if got := r.pool.FreeDescriptors(); got != free+k {
					t.Errorf("%d descriptors free after the sweep, want %d", got, free+k)
				}
			})
		}
	}
}

// TestRetireRunCrashSweep crashes at every device op of a sweep that
// finalizes three descriptors with victims, recovers, and checks that
// every descriptor is durably Free and that the bitmaps and free lists
// hold each block exactly once: the live ones allocated, every other one
// free and handed out once.
func TestRetireRunCrashSweep(t *testing.T) {
	const k = 3
	for step := 1; ; step++ {
		r := newRunEnv(t, k)
		r.stageRun(t, true)
		completed := runUntilCrash(r.env, step, func() { r.sweep() })
		r.reopen(t)
		if err := r.pool.CheckRecovered(); err != nil {
			t.Fatalf("crash at op %d: %v", step, err)
		}
		live := make([]nvram.Offset, k)
		h := r.pool.NewHandle()
		for i, w := range r.words {
			live[i] = h.Read(w)
		}
		if err := r.alloc.CheckInUse(live); err != nil {
			t.Fatalf("crash at op %d: %v", step, err)
		}
		seen := map[nvram.Offset]bool{}
		for _, b := range live {
			seen[b] = true
		}
		ah, free := r.alloc.NewHandle(), int(r.spec[0].Count)-k
		for i := 0; i < free; i++ {
			b, err := ah.Alloc(64, r.data.Base+nvram.LineBytes)
			if err != nil {
				t.Fatalf("crash at op %d: block %d of %d free: %v", step, i, free, err)
			}
			if seen[b] {
				t.Fatalf("crash at op %d: block %#x handed out while owned", step, b)
			}
			seen[b] = true
		}
		if completed {
			// k bit clears, one bitmap line, and two stores and a flush
			// per header.
			if ops := step - 1; ops != 4*k+1 {
				t.Fatalf("the sweep made %d device ops, want %d", ops, 4*k+1)
			}
			t.Logf("crashed at each of the sweep's %d device ops", step-1)
			return
		}
	}
}

// TestRetireRunFenceOrder watches the device during a sweep of three
// descriptors with victims: every header reset must follow a fence that
// follows the victims' bitmap write-back, a fence must follow the last
// header flush, and no slot or victim may be free before the sweep ends.
// The simulator persists a line at Flush, so a crash image cannot show a
// missing fence; the hook reads the device's fence count at every op.
func TestRetireRunFenceOrder(t *testing.T) {
	const k = 3
	r := newRunEnv(t, k)
	r.stageRun(t, true)
	slots, blocks := r.pool.FreeDescriptors(), r.alloc.FreeBlocks(64)
	bitmapEnd := r.aReg.Base + nvram.LineBytes // the class's one bitmap line
	isHeader := func(off nvram.Offset) bool {
		return r.pool.descIndex(off&^(nvram.LineBytes-1)) >= 0
	}
	var clearFences, headerFences uint64 // fence counts at the last bitmap and header flushes
	clears, resets, headers := 0, 0, 0
	released := false
	r.dev.SetHook(func(op string, off nvram.Offset) {
		fences := r.dev.Stats().Fences
		if !released && (r.pool.FreeDescriptors() != slots || r.alloc.FreeBlocks(64) != blocks) {
			t.Errorf("a slot or victim was released before the sweep's last fence (seen at a %s of %#x)", op, off)
			released = true
		}
		switch {
		case op == "flush" && off >= r.aReg.Base && off < bitmapEnd:
			clears++
			clearFences = fences
		case op == "store" && isHeader(off):
			resets++
			if clears == 0 || fences <= clearFences {
				t.Errorf("header %#x reset before a fence ordered the victims' bit clears", off)
			}
		case op == "flush" && isHeader(off):
			headers++
			headerFences = fences
		}
	})
	n := r.sweep()
	r.dev.SetHook(nil)
	if n != k || clears != 1 || resets != 2*k || headers != k {
		t.Fatalf("sweep of %d: %d bitmap flushes, %d header stores, %d header flushes; want 1, %d, %d",
			n, clears, resets, headers, 2*k, k)
	}
	if r.dev.Stats().Fences <= headerFences {
		t.Error("no fence after the last header flush")
	}
	if got := r.pool.FreeDescriptors(); got != slots+k {
		t.Errorf("%d slots free after the sweep, want %d", got, slots+k)
	}
	if got := r.alloc.FreeBlocks(64); got != blocks+k {
		t.Errorf("%d blocks free after the sweep, want %d", got, blocks+k)
	}
}

// TestRetireRunAllocatesNothing stages eleven runs of three descriptors
// with victims, each pinned by a guard of its own, and then sweeps them
// one by one, releasing one guard before each sweep: no sweep may
// heap-allocate. (Staging is not measured: DeferRetire's list grows.)
func TestRetireRunAllocatesNothing(t *testing.T) {
	if nvram.SanitizerEnabled {
		t.Skip("psan's shadow state allocates on device ops")
	}
	const runs = 10 // AllocsPerRun sweeps runs+1 times
	r := newRunEnv(t, 3)
	pins := make([]*epoch.Guard, runs+1)
	for i := range pins {
		pins[i] = r.pool.Epochs().Register()
		//lint:allow guardfact — each pin is released by the sweep that finalizes its run, one per measured call
		pins[i].Enter()
		r.stageRun(t, true)
	}
	next := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		pins[next].Exit()
		next++
		if n := r.sweep(); n != 3 {
			t.Fatalf("sweep %d finalized %d descriptors, want 3", next, n)
		}
	}); allocs != 0 {
		t.Errorf("a sweep of three descriptors allocates %v times, want 0", allocs)
	}
}
