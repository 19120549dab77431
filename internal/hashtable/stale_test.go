package hashtable

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

// The tests below race an Update against a second handle that changes
// the update's slot after the update has located its bucket: a split
// that moves the key before or after the update reads its value, and a
// delete whose slot another key refills with the same value. An update
// compares its key word and its value word, not the bucket version, so
// the split's value mark and the key entry are all that stop it.

// staleDeadline bounds every op under test: one that never located again
// would retry its lost PMwCAS forever, and must fail rather than hang.
const staleDeadline = 10 * time.Second

// within runs fn on its own goroutine and fails the test if fn has not
// returned by staleDeadline. A timed-out fn is left running: nothing can
// stop an op that retries forever, so it ends with the test binary.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(staleDeadline):
		t.Fatalf("%s did not return within %v", what, staleDeadline)
	}
}

// atFirstStore runs mutate at the next device store. An Update's first
// store stages its descriptor: after it has read its slot's value, and
// before its PMwCAS. The result reports whether mutate ran.
func (e *htEnv) atFirstStore(mutate func()) *atomic.Bool {
	var ran atomic.Bool
	e.dev.SetHook(func(op string, _ nvram.Offset) {
		if op == "store" {
			e.dev.SetHook(nil)
			ran.Store(true)
			mutate()
		}
	})
	return &ran
}

// keysWithBit0 returns the first n keys from 1 whose hash has bit 0 set
// (odd) or clear: the bit a depth-0 bucket's split routes on.
func keysWithBit0(odd bool, n int) []uint64 {
	var out []uint64
	for k := uint64(1); len(out) < n; k++ {
		if (mix64(k)&1 == 1) == odd {
			out = append(out, k)
		}
	}
	return out
}

// TestUpdateRacesSplit: a split moves the updated key to a new sibling
// between the update's value read and its PMwCAS. The split marked the
// value the update compares, so the update loses its PMwCAS, locates
// again and lands in the sibling; the ghost keeps its marked old value.
func TestUpdateRacesSplit(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 4)
	h, h2 := e.tab.NewHandle(), e.tab.NewHandle()
	odd, even := keysWithBit0(true, 2), keysWithBit0(false, 3)
	k, splitter := odd[0], odd[1]
	// k takes slot 0 of the first bucket, and three keys that stay fill it.
	for _, key := range append([]uint64{k}, even...) {
		if err := h.Insert(key, key*10); err != nil {
			t.Fatalf("Insert(%d): %v", key, err)
		}
	}
	first := nvram.Offset(e.rawLoad(e.roots.Base))
	failed := e.pool.Stats().Failed
	ran := e.atFirstStore(func() {
		// The full bucket splits, moving k and taking splitter.
		if err := h2.Insert(splitter, 5); err != nil {
			t.Errorf("second handle's Insert: %v", err)
		}
	})
	var err error
	within(t, "Update", func() { err = h.Update(k, 77) })
	if !ran.Load() {
		t.Fatal("the update made no device store: the split never ran in its gap")
	}
	if err != nil {
		t.Fatalf("Update = %v", err)
	}
	if n := e.tab.Stats().Splits; n != 1 {
		t.Fatalf("%d splits, want 1", n)
	}
	if n := e.pool.Stats().Failed - failed; n != 1 {
		t.Fatalf("%d PMwCASes failed, want 1: the update's first", n)
	}
	if key, val := e.rawLoad(slotKeyOff(first, 0)), e.rawLoad(slotValOff(first, 0)); key != k || val != k*10|GhostMask {
		t.Fatalf("first bucket's slot 0 = (%d, %#x), want k's ghost (%d, %#x)", key, val, k, k*10|GhostMask)
	}
	want := map[uint64]uint64{k: 77, splitter: 5}
	for _, key := range even {
		want[key] = key * 10
	}
	for key, v := range want {
		if got, err := h.Get(key); err != nil || got != v {
			t.Fatalf("Get(%d) = (%d, %v), want %d", key, got, err, v)
		}
	}
	e.reopen(t)
	if got := e.check(t); len(got) != len(want) || got[k] != 77 {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestUpdateReadsGhostValue: a split commits after the update has
// located its bucket and before it reads its slot's value, so the update
// reads the value the split marked. A third handle's update of another
// slot, paused with its descriptor installed in that slot's key word,
// opens the gap: the update's scan helps it, and the split runs at the
// help's first device op. The update must take the mark for a stale
// route, locate again and land in the sibling, not write to the ghost.
func TestUpdateReadsGhostValue(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 4)
	h, h2, h3 := e.tab.NewHandle(), e.tab.NewHandle(), e.tab.NewHandle()
	odd, even := keysWithBit0(true, 2), keysWithBit0(false, 3)
	k, splitter, a := odd[0], odd[1], even[0]
	// a takes slot 0 and k slot 1 of the first bucket; two keys that
	// stay fill it.
	for _, key := range []uint64{a, k, even[1], even[2]} {
		if err := h.Insert(key, key*10); err != nil {
			t.Fatalf("Insert(%d): %v", key, err)
		}
	}
	first := nvram.Offset(e.rawLoad(e.roots.Base))
	// h3's update installs its descriptor in slot 0's key word, then
	// waits at its install in slot 0's value word.
	paused, release := make(chan struct{}), make(chan struct{})
	e.dev.SetHook(func(op string, off nvram.Offset) {
		if op == "cas" && off == slotValOff(first, 0) {
			e.dev.SetHook(nil)
			close(paused)
			<-release
		}
	})
	done3 := make(chan error, 1)
	go func() { done3 <- h3.Update(a, 99) }()
	select {
	case <-paused:
	case <-time.After(staleDeadline):
		t.Fatal("the third handle's update never installed into slot 0's value word")
	}
	// The split runs at the first device op of the update's help.
	var ran atomic.Bool
	e.dev.SetHook(func(string, nvram.Offset) {
		e.dev.SetHook(nil)
		ran.Store(true)
		if err := h2.Insert(splitter, 5); err != nil {
			t.Errorf("second handle's Insert: %v", err)
		}
	})
	var err error
	within(t, "Update", func() { err = h.Update(k, 77) })
	close(release)
	if err3 := <-done3; err3 != nil {
		t.Fatalf("third handle's Update = %v", err3)
	}
	if !ran.Load() {
		t.Fatal("the update helped no PMwCAS: the split never ran in its gap")
	}
	if err != nil {
		t.Fatalf("Update = %v", err)
	}
	if n := e.tab.Stats().Splits; n != 1 {
		t.Fatalf("%d splits, want 1", n)
	}
	if key, val := e.rawLoad(slotKeyOff(first, 1)), e.rawLoad(slotValOff(first, 1)); key != k || val != k*10|GhostMask {
		t.Fatalf("first bucket's slot 1 = (%d, %#x), want k's ghost (%d, %#x)", key, val, k, k*10|GhostMask)
	}
	want := map[uint64]uint64{a: 99, k: 77, splitter: 5, even[1]: even[1] * 10, even[2]: even[2] * 10}
	for key, v := range want {
		if got, err := h.Get(key); err != nil || got != v {
			t.Fatalf("Get(%d) = (%d, %v), want %d", key, got, err, v)
		}
	}
	e.reopen(t)
	if got := e.check(t); len(got) != len(want) || got[k] != 77 || got[a] != 99 {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestUpdateRacesSlotReuse: between the update's value read and its
// PMwCAS, its key is deleted and another key holding the same value
// takes the slot. The value still matches but the key does not: the
// update must not change the other key, and finds its own key gone.
func TestUpdateRacesSlotReuse(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 4)
	h, h2 := e.tab.NewHandle(), e.tab.NewHandle()
	const k, other, val = 1, 2, 40
	if err := h.Insert(k, val); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	first := nvram.Offset(e.rawLoad(e.roots.Base))
	ran := e.atFirstStore(func() {
		if err := h2.Delete(k); err != nil {
			t.Errorf("second handle's Delete: %v", err)
		}
		if err := h2.Insert(other, val); err != nil {
			t.Errorf("second handle's Insert: %v", err)
		}
	})
	var err error
	within(t, "Update", func() { err = h.Update(k, 77) })
	if !ran.Load() {
		t.Fatal("the update made no device store: the slot was never reused in its gap")
	}
	if key := e.rawLoad(slotKeyOff(first, 0)); key != other {
		t.Fatalf("slot 0 holds key %d, want %d: the test is vacuous", key, other)
	}
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("Update = %v, want ErrNotFound", err)
	}
	if got, err := h.Get(other); err != nil || got != val {
		t.Fatalf("Get(%d) = (%d, %v), want %d", other, got, err, val)
	}
	e.reopen(t)
	if got := e.check(t); len(got) != 1 || got[other] != val {
		t.Fatalf("recovered %v, want only %d = %d", got, other, val)
	}
}

// TestUpdatesRaceSplits: two updaters write tagged, unique values to
// disjoint keys while a third goroutine inserts fresh keys whose hashes
// share their low bits with an updated key, so the 4-slot buckets that
// hold the updated keys split again and again under the updates, each
// split moving the keys whose next hash bit is 1. The device yields
// every few word accesses. The splitter runs until both updaters are
// done, so each key's last write races the splits too; each key must end
// at its last acknowledged value, before and after a crash.
func TestUpdatesRaceSplits(t *testing.T) {
	e := newHTEnv(t, core.Persistent, 4, nvram.WithYield(8))
	const keys, rounds, updaters = 8, 100, 2
	// A fresh key shares classBits low hash bits with an updated key, so
	// it lands in that key's bucket until the bucket is that deep. The
	// 128-byte class holds 4,096 buckets; maxFresh keys fill fewer.
	const classBits, maxFresh = 8, 3000
	h := e.tab.NewHandle()
	last := make([]uint64, keys+1)
	for k := uint64(1); k <= keys; k++ {
		last[k] = k
		if err := h.Insert(k, k); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	var stop atomic.Bool
	fresh := 0
	var splitter, writers sync.WaitGroup
	splitter.Add(1)
	go func() {
		defer splitter.Done()
		h := e.tab.NewHandle()
		next := uint64(keys + 1)
		for ; !stop.Load() && fresh < maxFresh; fresh++ {
			class := mix64(uint64(fresh%keys)+1) & (1<<classBits - 1)
			for mix64(next)&(1<<classBits-1) != class {
				next++
			}
			if err := h.Insert(next, next); err != nil {
				t.Errorf("Insert(%d): %v", next, err)
				return
			}
			next++
		}
	}()
	for w := 0; w < updaters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			h := e.tab.NewHandle()
			for r := uint64(1); r <= rounds; r++ {
				for k := uint64(w + 1); k <= keys; k += updaters {
					v := uint64(w+1)<<48 | r<<16 | k
					if err := h.Update(k, v); err != nil {
						t.Errorf("Update(%d): %v", k, err)
						return
					}
					last[k] = v
					// Only this goroutine writes k: an update that landed on
					// a ghost reads back the value the split copied.
					if got, err := h.Get(k); err != nil || got != v {
						t.Errorf("Get(%d) = (%#x, %v) after Update(%d, %#x)", k, got, err, k, v)
						return
					}
				}
			}
		}(w)
	}
	writers.Wait()
	stop.Store(true)
	splitter.Wait()
	if t.Failed() {
		return
	}
	if fresh >= maxFresh {
		t.Fatalf("the splitter stopped at %d keys before the updaters finished", fresh)
	}
	for k := uint64(1); k <= keys; k++ {
		if got, err := h.Get(k); err != nil || got != last[k] {
			t.Fatalf("Get(%d) = (%#x, %v), want the last acknowledged %#x", k, got, err, last[k])
		}
	}
	e.reopen(t)
	got := e.check(t)
	for k := uint64(1); k <= keys; k++ {
		if got[k] != last[k] {
			t.Fatalf("recovered %d = %#x, want %#x", k, got[k], last[k])
		}
	}
	if want := keys + fresh; len(got) != want {
		t.Fatalf("recovered %d keys, want %d", len(got), want)
	}
}
