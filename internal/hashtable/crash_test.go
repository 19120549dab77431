package hashtable

import (
	"testing"

	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

// sweepStride spaces the crash points: every device op in the default
// build, a sample under -short or the race detector (the sweeps are
// single-threaded, so the detector only slows the replay; the full sweep
// runs in the plain CI job and in the whole-stack crashsweep harness).
func sweepStride(k int) int {
	if testing.Short() || raceEnabled {
		return 1 + (k % 13)
	}
	return 1
}

// crashPanic is the failpoint sentinel.
type crashPanic struct{ step int }

// runUntilCrash executes fn with a crash injected at the k-th mutating
// device op; reports whether fn completed first.
func runUntilCrash(dev *nvram.Device, k int, fn func()) (completed bool) {
	step := 0
	dev.SetHook(func(op string, off nvram.Offset) {
		step++
		if step == k {
			panic(crashPanic{step: k})
		}
	})
	defer dev.SetHook(nil)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashPanic); !ok {
				panic(r)
			}
			completed = false
		}
	}()
	fn()
	return true
}

// TestCrashSweepMidSplit pins the headline recovery claim: a table that
// crashes at any device operation of a bucket-splitting insert recovers
// with no lost and no duplicated slots. The root bucket is filled to
// capacity so the swept insert must split; every acknowledged key must
// survive exactly once — Check fails on duplicates — and the in-flight
// key must be all-or-nothing.
func TestCrashSweepMidSplit(t *testing.T) {
	for k := 1; ; k += sweepStride(k) {
		e := newHTEnv(t, core.Persistent, 4)
		h := e.tab.NewHandle()
		for key := uint64(1); key <= 4; key++ {
			if err := h.Insert(key, key*100); err != nil {
				t.Fatalf("seed insert: %v", err)
			}
		}

		completed := runUntilCrash(e.dev, k, func() {
			if err := h.Insert(5, 500); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		})

		e.reopen(t)
		got := e.check(t)
		for key := uint64(1); key <= 4; key++ {
			if got[key] != key*100 {
				t.Fatalf("crash at %d: acked key %d = %d, want %d", k, key, got[key], key*100)
			}
		}
		v, present := got[5]
		if present && v != 500 {
			t.Fatalf("crash at %d: torn value %d for pending key", k, v)
		}
		if completed && !present {
			t.Fatalf("crash at %d: acknowledged insert lost", k)
		}
		if extra := len(got) - 4; present && extra != 1 || !present && extra != 0 {
			t.Fatalf("crash at %d: %d keys recovered (pending present=%v)", k, len(got), present)
		}
		// The table stays fully usable after recovery.
		h2 := e.tab.NewHandle()
		if !present {
			if err := h2.Insert(5, 500); err != nil {
				t.Fatalf("crash at %d: re-insert after recovery: %v", k, err)
			}
		}
		if got, err := h2.Get(5); err != nil || got != 500 {
			t.Fatalf("crash at %d: post-recovery Get = (%d, %v)", k, got, err)
		}

		if completed {
			break // k ran past the trace: every crash point swept
		}
	}
}

// TestCrashSweepGrowth crashes at every device operation of a 30-key
// trace that drives the tiny-bucket table through many splits, auditing
// each crash image against an acked/pending oracle. This is the pinned,
// in-package twin of the whole-stack crashsweep workload.
func TestCrashSweepGrowth(t *testing.T) {
	const keys = 30
	var tracePoints int
	for k := 1; ; k += sweepStride(k) {
		e := newHTEnv(t, core.Persistent, 2)
		h := e.tab.NewHandle()
		model := make(map[uint64]uint64)
		var pendingKey, pendingVal uint64

		completed := runUntilCrash(e.dev, k, func() {
			for key := uint64(1); key <= keys; key++ {
				pendingKey, pendingVal = key, key*7
				if err := h.Insert(key, key*7); err != nil {
					t.Fatalf("Insert(%d): %v", key, err)
				}
				model[key] = key * 7
			}
		})
		splits := e.tab.Stats().Splits

		e.reopen(t)
		got := e.check(t)
		for key, val := range model {
			if got[key] != val {
				t.Fatalf("crash at %d: acked key %d = %d, want %d", k, key, got[key], val)
			}
		}
		for key, val := range got {
			if mval, acked := model[key]; acked {
				if val != mval {
					t.Fatalf("crash at %d: key %d = %d, want %d", k, key, val, mval)
				}
			} else if key != pendingKey || val != pendingVal {
				t.Fatalf("crash at %d: phantom key %d = %d (pending %d)", k, key, val, pendingKey)
			}
		}

		if completed {
			tracePoints = k
			// Prove the swept trace actually contains the machinery under
			// test: 30 keys need at least 15 two-slot buckets, so the
			// trace committed at least 14 splits.
			if splits < keys/2-1 {
				t.Fatalf("trace committed %d splits, want >= %d: sweep is vacuous", splits, keys/2-1)
			}
			break
		}
	}
	if tracePoints < 50 {
		t.Fatalf("suspiciously short trace: %d crash points", tracePoints)
	}
}
