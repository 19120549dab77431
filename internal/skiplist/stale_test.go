package skiplist

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

// The tests below hand promote, unlinkLevel, unlinkBase and delete a find
// that a second handle has made stale, and check that each op finds again
// and completes, or abandons, leaving a well-formed list that leaks
// nothing.

// staleDeadline bounds every op under test: one that never found again
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

// guarded runs fn under h's guard, as the ops under test require.
func (h *Handle) guarded(fn func()) {
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()
	fn()
}

// link inserts key, valued key, with a tower of exactly height levels.
func (h *Handle) link(t *testing.T, key uint64, height int) {
	h.guarded(func() {
		r := h.find(key)
		node, err := h.insert(r.preds[0], r.succs[0], key, key, height, opInsert)
		if err != nil || node == 0 {
			t.Errorf("insert %d = (%#x, %v)", key, node, err)
			return
		}
		for level := 1; level < height; level++ {
			if !h.promote(node, key, level, &r) {
				t.Errorf("promote %d to level %d lost", key, level)
			}
		}
	})
}

// A staleCase makes a find of key 50 stale through a second handle h2,
// on a list holding 10 and 90 with 3-level towers, and 50.
type staleCase struct {
	name string
	gone bool // the node the find reached is no longer in the list
	// mutate runs through h2; it may run inside the op under test, so it
	// reports with Errorf only.
	mutate func(t *testing.T, h2 *Handle)
}

var staleCases = []staleCase{
	{"inserted between", false, func(t *testing.T, h2 *Handle) {
		h2.link(t, 40, 3) // between 50 and its predecessor 10 on every level
	}},
	{"deleted", true, func(t *testing.T, h2 *Handle) {
		if err := h2.Delete(50); err != nil {
			t.Errorf("second handle's Delete: %v", err)
		}
	}},
	{"reinserted", true, func(t *testing.T, h2 *Handle) {
		if err := h2.Delete(50); err != nil {
			t.Errorf("second handle's Delete: %v", err)
		}
		h2.link(t, 50, 3)
	}},
}

// keysAfter returns the list's keys once the case has run and key 50's
// original node was removed (unlinked) or not.
func (tc staleCase) keysAfter(unlinked bool) []uint64 {
	keys := []uint64{10, 90}
	if tc.name == "inserted between" {
		keys = append(keys, 40)
	}
	if tc.name == "reinserted" || (tc.name == "inserted between" && !unlinked) {
		keys = append(keys, 50)
	}
	slices.Sort(keys)
	return keys
}

// staleEnv returns a list holding 10 and 90 and two handles on it.
func staleEnv(t *testing.T) (*lenv, *Handle, *Handle) {
	e := newListEnv(t, core.Persistent)
	h, h2 := e.list.NewHandle(1), e.list.NewHandle(2)
	h.link(t, 10, 3)
	h.link(t, 90, 3)
	return e, h, h2
}

// staleAt runs mutate now, or, when inside is set, at the next device
// store: the first store of the op under test, which comes after the op
// has read the find it was handed.
func (e *lenv) staleAt(inside bool, mutate func()) {
	if !inside {
		mutate()
		return
	}
	e.dev.SetHook(func(op string, _ nvram.Offset) {
		if op == "store" {
			e.dev.SetHook(nil)
			mutate()
		}
	})
}

// audit restarts the list and checks that it is well formed, holds
// exactly keys, and that every allocated block is reachable from it.
func (e *lenv) audit(t *testing.T, keys []uint64) {
	t.Helper()
	e.dev.SetHook(nil)
	e.drain()
	e.reopen(t)
	e.checkStructure(t)
	blocks, entries, err := Check(e.dev, e.roots)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, en := range entries {
		got = append(got, en.Key)
	}
	if !slices.Equal(got, keys) {
		t.Fatalf("keys = %v, want %v", got, keys)
	}
	if inUse, _ := e.alloc.InUse(); inUse != uint64(len(blocks)) {
		t.Fatalf("%d blocks in use, %d reachable from the list: a node leaked", inUse, len(blocks))
	}
}

// staleRuns calls run for every case, with the case's mutation made
// before the op under test and inside it.
func staleRuns(t *testing.T, run func(t *testing.T, tc staleCase, inside bool)) {
	for _, tc := range staleCases {
		for _, inside := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/inside=%v", tc.name, inside), func(t *testing.T) {
				run(t, tc, inside)
			})
		}
	}
}

// A promotion handed the insert's find promotes past a node inserted
// since, and abandons a node deleted since.
func TestPromoteStaleFind(t *testing.T) {
	staleRuns(t, func(t *testing.T, tc staleCase, inside bool) {
		e, h, h2 := staleEnv(t)
		promoted := 0
		h.guarded(func() {
			r := h.find(50)
			node, err := h.insert(r.preds[0], r.succs[0], 50, 50, 3, opInsert)
			if err != nil || node == 0 {
				t.Fatalf("insert = (%#x, %v)", node, err)
			}
			e.staleAt(inside, func() { tc.mutate(t, h2) })
			within(t, "promote", func() {
				for level := 1; level < 3 && h.promote(node, 50, level, &r); level++ {
					promoted++
				}
			})
		})
		if want := map[bool]int{false: 2, true: 0}[tc.gone]; promoted != want {
			t.Fatalf("promoted %d levels, want %d", promoted, want)
		}
		e.audit(t, tc.keysAfter(false))
	})
}

// unlinkLevel and unlinkBase, handed delete's find, unlink past a node
// inserted since, and leave a node deleted since to its deleter; like
// delete, the test finds again after unlinkBase reports false.
func TestUnlinkStaleFind(t *testing.T) {
	for _, height := range []int{1, 3} {
		t.Run(fmt.Sprintf("height=%d", height), func(t *testing.T) {
			staleRuns(t, func(t *testing.T, tc staleCase, inside bool) {
				e, h, h2 := staleEnv(t)
				h.link(t, 50, height)
				unlinked := false
				h.guarded(func() {
					r := h.find(50)
					node := r.found
					e.staleAt(inside, func() { tc.mutate(t, h2) })
					within(t, "unlink", func() {
						for level := height - 1; level >= 1; level-- {
							if err := h.unlinkLevel(node, 50, level, height, &r); err != nil {
								t.Errorf("unlinkLevel %d: %v", level, err)
							}
						}
						var err error
						if unlinked, _, err = h.unlinkBase(node, height, false, &r); !unlinked && err == nil {
							if r = h.find(50); r.found == node {
								unlinked, _, err = h.unlinkBase(node, height, false, &r)
							}
						}
						if err != nil {
							t.Errorf("unlinkBase: %v", err)
						}
					})
				})
				if unlinked == tc.gone {
					t.Fatalf("unlinked = %v with the node gone = %v", unlinked, tc.gone)
				}
				e.audit(t, tc.keysAfter(true))
			})
		})
	}
}

// A Delete whose find goes stale inside it finds again: it deletes the
// node past a node inserted since, and reports ErrNotFound for a node
// another handle deleted since.
func TestDeleteStaleFind(t *testing.T) {
	for _, height := range []int{1, 3} {
		for _, tc := range staleCases {
			t.Run(fmt.Sprintf("height=%d/%s", height, tc.name), func(t *testing.T) {
				e, h, h2 := staleEnv(t)
				h.link(t, 50, height)
				e.staleAt(true, func() { tc.mutate(t, h2) })
				var err error
				within(t, "Delete", func() { err = h.Delete(50) })
				if want := map[bool]error{false: nil, true: ErrNotFound}[tc.gone]; !errors.Is(err, want) {
					t.Fatalf("Delete = %v, want %v", err, want)
				}
				e.audit(t, tc.keysAfter(true))
			})
		}
	}
}

// TestFindRestartsConverge runs writers against readers on a device that
// yields every few words, so a find regularly holds a predecessor that is
// deleted underfoot and restarts from the head. Every op must still
// return, and a key no one deletes must always be found.
func TestFindRestartsConverge(t *testing.T) {
	e := newListEnv(t, core.Persistent, nvram.WithYield(32))
	h := e.list.NewHandle(0)
	for k := uint64(2); k <= 64; k += 2 {
		if err := h.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	before := mFindRestarts.Value()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := e.list.NewHandle(seed)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := uint64(rng.Intn(64) + 1)
				switch {
				case k%2 == 0: // never deleted
					if v, err := h.Get(k); err != nil || v != k {
						t.Errorf("Get(%d) = (%d, %v)", k, v, err)
					}
				case rng.Intn(2) == 0:
					h.Insert(k, k)
				default:
					h.Delete(k)
				}
			}
		}(int64(w) + 1)
	}
	within(t, "the mix", wg.Wait)
	if mFindRestarts.Value() == before {
		t.Fatal("no find restarted: the mix raced nothing")
	}
	e.checkStructure(t)
}

// A promotion that lands on a level a concurrent delete has already
// passed (it was unpromoted then) must not leave the tower with a gap:
// the delete's unlink of the level below compares the level above dead,
// so it leaves both for its next round instead of marking the level
// below. With the gap, every find through the node met a marked link
// and restarted for ever: the livelock TestFindRestartsConverge hit.
func TestLatePromotionKeepsTowerContiguous(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	for _, k := range []uint64{10, 90} {
		if err := h.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	h.guarded(func() {
		r := h.find(50)
		node, err := h.insert(r.preds[0], r.succs[0], 50, 50, 3, opInsert)
		if err != nil || node == 0 {
			t.Fatalf("insert = %#x, %v", node, err)
		}
		if !h.promote(node, 50, 1, &r) {
			t.Fatal("promotion to level 1 did not land")
		}
		dr := h.find(50)
		// The delete passes level 2, unpromoted, then the insert
		// promotes it, then the delete reaches level 1.
		if err := h.unlinkLevel(node, 50, 2, 3, &dr); err != nil {
			t.Fatal(err)
		}
		if !h.promote(node, 50, 2, &r) {
			t.Fatal("promotion to level 2 did not land")
		}
		if err := h.unlinkLevel(node, 50, 1, 3, &dr); err != nil {
			t.Fatal(err)
		}
		if next := h.read(node + linkOff(1, false)); next&DeletedMask != 0 {
			t.Fatalf("level 1 unlinked under a live level 2: next = %#x", next)
		}
		within(t, "find through the node", func() {
			if got := h.find(50).found; got != node {
				t.Errorf("find(50) = %#x, want %#x", got, node)
			}
		})
	})
	within(t, "Delete", func() {
		if err := h.Delete(50); err != nil {
			t.Error(err)
		}
	})
	e.audit(t, []uint64{10, 90})
}
