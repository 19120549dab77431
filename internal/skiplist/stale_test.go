package skiplist

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmwcas/internal/core"
	"pmwcas/internal/index"
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
						if unlinked, _, err = h.unlinkBase(node, height, core.PolicyNone, &r); !unlinked && err == nil {
							if r = h.find(50); r.found == node {
								unlinked, _, err = h.unlinkBase(node, height, core.PolicyNone, &r)
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

// A replace whose node a second handle deletes at the op's first store
// (after it read the value word) must not land on the dead node: the
// delete marked the value word it compares. Update reports ErrNotFound;
// PutOwned loses its PMwCAS, which frees its block, and its retry, with
// a new block as a caller makes, inserts a fresh node. Every block in use
// is then a live key's node or value.
func TestWriteStaleFind(t *testing.T) {
	t.Run("Update", func(t *testing.T) {
		e, h, h2 := staleEnv(t)
		h.link(t, 50, 3)
		e.staleAt(true, func() {
			if err := h2.Delete(50); err != nil {
				t.Errorf("second handle's Delete: %v", err)
			}
		})
		var err error
		within(t, "Update", func() { err = h.Update(50, 51) })
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("Update of a node deleted inside it = %v, want ErrNotFound", err)
		}
		e.audit(t, []uint64{10, 90})
	})
	t.Run("PutOwned", func(t *testing.T) {
		e, h, h2 := staleEnv(t)
		ah := e.alloc.NewHandle()
		e.drain()
		base, _ := e.alloc.InUse()
		if err := h.PutOwned(50, e.block(t, ah, 0)); err != nil {
			t.Fatal(err)
		}
		last := e.block(t, ah, 0)
		e.staleAt(true, func() {
			if _, err := h2.DeleteOwned(50); err != nil {
				t.Errorf("second handle's DeleteOwned: %v", err)
			}
		})
		raced := 0
		within(t, "PutOwned", func() {
			for {
				err := h.PutOwned(50, last)
				if err != index.ErrRaced {
					if err != nil {
						t.Errorf("PutOwned: %v", err)
					}
					return
				}
				raced++
				last = e.block(t, ah, 0)
			}
		})
		if raced != 1 {
			t.Fatalf("%d PutOwned calls lost their race, want 1", raced)
		}
		if v, err := h.Get(50); err != nil || v != last {
			t.Fatalf("Get(50) = (%#x, %v), want %#x", v, err, last)
		}
		e.drain()
		if inUse, _ := e.alloc.InUse(); inUse != base+2 {
			t.Fatalf("%d blocks in use, want %d: key 50's node and value", inUse-base, 2)
		}
		e.checkStructure(t)
	})
}

// A find made before a tower was promoted above the top its list knew
// reports (head, tail) at those levels without loading them. promote,
// unlinkLevel with unlinkBase, and Delete handed such a find must still
// finish inside the deadline and leave a well-formed list. A second
// handle on the same List promotes the tower.
func TestStaleTopFind(t *testing.T) {
	const height = 5 // staleEnv's towers reach level 2: top is 3
	// env returns a list holding 10 and 90, a handle on it, and the
	// second handle, which promotes the levels above top.
	env := func(t *testing.T) (*lenv, *Handle, *Handle) {
		e, h, h2 := staleEnv(t)
		if top := e.list.top.Load(); top != 3 {
			t.Fatalf("top = %d before the test, want 3", top)
		}
		return e, h, h2
	}
	// partial inserts 50 with a tower of height levels, linked up to
	// level 2 only.
	partial := func(t *testing.T, h *Handle) nvram.Offset {
		var node nvram.Offset
		h.guarded(func() {
			r := h.find(50)
			var err error
			if node, err = h.insert(r.preds[0], r.succs[0], 50, 50, height, opInsert); err != nil || node == 0 {
				t.Fatalf("insert = (%#x, %v)", node, err)
			}
			for level := 1; level < 3; level++ {
				if !h.promote(node, 50, level, &r) {
					t.Fatalf("promote to level %d lost", level)
				}
			}
		})
		return node
	}
	// promoteRest promotes node 50 above top through h2.
	promoteRest := func(t *testing.T, h2 *Handle, node nvram.Offset) {
		h2.guarded(func() {
			r := h2.find(50)
			for level := 3; level < height; level++ {
				if !h2.promote(node, 50, level, &r) {
					t.Errorf("second handle's promote to level %d lost", level)
				}
			}
		})
	}
	t.Run("handle/promote", func(t *testing.T) {
		e, h, h2 := env(t)
		h.guarded(func() {
			r := h.find(50)
			node, err := h.insert(r.preds[0], r.succs[0], 50, 50, height, opInsert)
			if err != nil || node == 0 {
				t.Fatalf("insert = (%#x, %v)", node, err)
			}
			h2.link(t, 60, height)
			within(t, "promote", func() {
				for level := 1; level < height; level++ {
					if !h.promote(node, 50, level, &r) {
						t.Errorf("promote to level %d lost", level)
					}
				}
			})
		})
		e.audit(t, []uint64{10, 50, 60, 90})
	})
	t.Run("handle/unlink", func(t *testing.T) {
		e, h, h2 := env(t)
		node := partial(t, h)
		unlinked := false
		h.guarded(func() {
			r := h.find(50)
			promoteRest(t, h2, node)
			within(t, "unlink", func() {
				for level := height - 1; level >= 1; level-- {
					if err := h.unlinkLevel(node, 50, level, height, &r); err != nil {
						t.Errorf("unlinkLevel %d: %v", level, err)
					}
				}
				var err error
				if unlinked, _, err = h.unlinkBase(node, height, core.PolicyNone, &r); err != nil {
					t.Errorf("unlinkBase: %v", err)
				}
			})
		})
		if !unlinked {
			t.Fatal("unlinkBase did not unlink the node")
		}
		e.audit(t, []uint64{10, 90})
	})
	t.Run("handle/Delete", func(t *testing.T) {
		e, h, h2 := env(t)
		node := partial(t, h)
		e.staleAt(true, func() { promoteRest(t, h2, node) })
		var err error
		within(t, "Delete", func() { err = h.Delete(50) })
		if err != nil {
			t.Fatalf("Delete = %v", err)
		}
		e.audit(t, []uint64{10, 90})
	})
}

// TestTopCoversLinkedLevels checks top at every device write: no PMwCAS
// may install into or store a head link word at or above top, so a
// promotion raises top before its PMwCAS, not after it.
func TestTopCoversLinkedLevels(t *testing.T) {
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	l := e.list
	var bad atomic.Int64
	e.dev.SetHook(func(op string, off nvram.Offset) {
		if op == "flush" || off < l.head || off >= l.head+nvram.Offset(nodeSize(MaxHeight)) {
			return
		}
		for level := int(l.top.Load()); level < MaxHeight; level++ {
			if off == l.head+linkOff(level, false) {
				bad.Add(1)
			}
		}
	})
	within(t, "inserts", func() {
		for k := uint64(1); k <= 2000; k++ {
			if err := h.Insert(k, k); err != nil {
				t.Errorf("Insert(%d): %v", k, err)
				return
			}
		}
	})
	e.dev.SetHook(nil)
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d writes to a head link word at or above top", n)
	}
	if top := l.top.Load(); top < 5 {
		t.Fatalf("top = %d after 2000 inserts: the towers tested nothing", top)
	}
}

// TestHighTopHint perturbs the list's DRAM top in the direction its
// contract allows: high, never low. With top forced to MaxHeight on a
// warm list, four goroutines run an insert/update/delete/get mix, each
// on keys of its own residue mod 4, against a model of its keys. Every
// answer must match the model, the mix must finish inside the deadline,
// and the restarted list must check clean and hold exactly the models'
// entries.
func TestHighTopHint(t *testing.T) {
	const workers, keys, ops = 4, 512, 1500
	e := newListEnv(t, core.Persistent)
	h := e.list.NewHandle(1)
	models := make([]map[uint64]uint64, workers)
	for w := range models {
		models[w] = make(map[uint64]uint64)
	}
	for k := uint64(1); k <= keys; k += 2 {
		if err := h.Insert(k, k); err != nil {
			t.Fatal(err)
		}
		models[k%workers][k] = k
	}
	if top := e.list.top.Load(); top >= MaxHeight {
		t.Fatalf("top = %d on the warm list: forcing it to MaxHeight tests nothing", top)
	}
	e.list.top.Store(MaxHeight)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h, m := e.list.NewHandle(int64(w)+2), models[w]
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				k := uint64(rng.Intn(keys/workers))*workers + uint64(w)
				if k == 0 {
					k = workers
				}
				v, had := m[k]
				var err, wantErr error
				switch rng.Intn(4) {
				case 0:
					if err = h.Insert(k, uint64(i)); had {
						wantErr = ErrKeyExists
					} else {
						m[k] = uint64(i)
					}
				case 1:
					if err = h.Update(k, uint64(i)); had {
						m[k] = uint64(i)
					} else {
						wantErr = ErrNotFound
					}
				case 2:
					if err = h.Delete(k); had {
						delete(m, k)
					} else {
						wantErr = ErrNotFound
					}
				default:
					var got uint64
					if got, err = h.Get(k); !had {
						wantErr = ErrNotFound
					} else if err == nil && got != v {
						t.Errorf("Get(%d) = %d, want %d", k, got, v)
						return
					}
				}
				if !errors.Is(err, wantErr) {
					t.Errorf("op %d on key %d: err = %v, want %v", i, k, err, wantErr)
					return
				}
			}
		}(w)
	}
	within(t, "the mix", wg.Wait)
	if top := e.list.top.Load(); top != MaxHeight {
		t.Fatalf("top = %d after the mix, want it left at %d", top, MaxHeight)
	}
	want := make(map[uint64]uint64)
	var wantKeys []uint64
	for _, m := range models {
		maps.Copy(want, m)
		for k := range m {
			wantKeys = append(wantKeys, k)
		}
	}
	slices.Sort(wantKeys)
	e.audit(t, wantKeys)
	_, entries, err := Check(e.dev, e.roots)
	if err != nil {
		t.Fatal(err)
	}
	for _, en := range entries {
		if en.Value != want[en.Key] {
			t.Errorf("key %d recovered %d, want %d", en.Key, en.Value, want[en.Key])
		}
	}
}
