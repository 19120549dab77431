package skiplist

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"pmwcas/internal/alloc"
	"pmwcas/internal/epoch"
	"pmwcas/internal/nvram"
)

func newCASEnv(t testing.TB, opts ...nvram.Option) (*CASList, *alloc.Allocator, *epoch.Manager) {
	t.Helper()
	spec := slSpec()
	aBytes := alloc.MetaSize(spec, slHandles)
	dev := nvram.New(aBytes+1<<14, opts...)
	l := nvram.NewLayout(dev)
	aReg := l.Carve(aBytes)
	a, err := alloc.New(dev, aReg, spec, slHandles)
	if err != nil {
		t.Fatalf("alloc.New: %v", err)
	}
	mgr := epoch.NewManager()
	cl, err := NewCAS(dev, a, mgr)
	if err != nil {
		t.Fatalf("NewCAS: %v", err)
	}
	return cl, a, mgr
}

func TestCASInsertGetDelete(t *testing.T) {
	cl, _, _ := newCASEnv(t)
	h := cl.NewHandle(1)
	if err := h.Insert(10, 100); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if v, err := h.Get(10); err != nil || v != 100 {
		t.Fatalf("Get = (%d, %v)", v, err)
	}
	if err := h.Insert(10, 200); !errors.Is(err, ErrKeyExists) {
		t.Fatalf("duplicate Insert: %v", err)
	}
	if err := h.Delete(10); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := h.Get(10); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete: %v", err)
	}
	if err := h.Delete(10); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Delete: %v", err)
	}
}

func TestCASUpdate(t *testing.T) {
	cl, _, _ := newCASEnv(t)
	h := cl.NewHandle(1)
	if err := h.Update(5, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Update(absent): %v", err)
	}
	h.Insert(5, 1)
	if err := h.Update(5, 2); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if v, _ := h.Get(5); v != 2 {
		t.Fatalf("value = %d", v)
	}
}

func TestCASOrderedScans(t *testing.T) {
	cl, _, _ := newCASEnv(t)
	h := cl.NewHandle(1)
	keys := []uint64{9, 2, 7, 4, 5, 1, 8, 3, 6}
	for _, k := range keys {
		if err := h.Insert(k, k*3); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	fwd, err := h.Range(1, 100)
	if err != nil || len(fwd) != len(keys) {
		t.Fatalf("Range: %v, len=%d", err, len(fwd))
	}
	for i, ent := range fwd {
		if ent.Key != uint64(i+1) || ent.Value != uint64(i+1)*3 {
			t.Fatalf("entry %d = %+v", i, ent)
		}
	}
	rev, err := h.RangeReverse(1, 100)
	if err != nil || len(rev) != len(fwd) {
		t.Fatalf("RangeReverse: %v len=%d", err, len(rev))
	}
	for i := range rev {
		if rev[i] != fwd[len(fwd)-1-i] {
			t.Fatalf("reverse mismatch at %d: %+v", i, rev[i])
		}
	}
}

func TestCASQuickAgainstReferenceModel(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		cl, _, _ := newCASEnv(t)
		h := cl.NewHandle(seed)
		ref := map[uint64]uint64{}
		rng := rand.New(rand.NewSource(seed))
		for _, b := range opsRaw {
			key := uint64(rng.Intn(64) + 1)
			val := uint64(rng.Intn(1000))
			switch b % 3 {
			case 0:
				err := h.Insert(key, val)
				if _, dup := ref[key]; dup {
					if !errors.Is(err, ErrKeyExists) {
						return false
					}
				} else {
					if err != nil {
						return false
					}
					ref[key] = val
				}
			case 1:
				err := h.Delete(key)
				if _, ok := ref[key]; ok {
					if err != nil {
						return false
					}
					delete(ref, key)
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			case 2:
				v, err := h.Get(key)
				want, ok := ref[key]
				if ok != (err == nil) || (ok && v != want) {
					return false
				}
			}
		}
		var want []uint64
		for k := range ref {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got, err := h.Range(1, MaxKey-1)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i, ent := range got {
			if ent.Key != want[i] || ent.Value != ref[want[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCASConcurrentDisjointWriters(t *testing.T) {
	cl, _, _ := newCASEnv(t)
	const goroutines = 4
	const perG = 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := cl.NewHandle(int64(g))
			lo := uint64(g*perG + 1)
			for k := lo; k < lo+perG; k++ {
				if err := h.Insert(k, k*2); err != nil {
					t.Errorf("Insert(%d): %v", k, err)
					return
				}
			}
			for k := lo; k < lo+perG; k += 2 {
				if err := h.Delete(k); err != nil {
					t.Errorf("Delete(%d): %v", k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	h := cl.NewHandle(99)
	for g := 0; g < goroutines; g++ {
		lo := uint64(g*perG + 1)
		for k := lo; k < lo+perG; k++ {
			v, err := h.Get(k)
			if (k-lo)%2 == 0 {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("Get(%d) after delete: %v", k, err)
				}
			} else if err != nil || v != k*2 {
				t.Fatalf("Get(%d) = (%d, %v)", k, v, err)
			}
		}
	}
}

func TestCASConcurrentContendedMix(t *testing.T) {
	cl, _, mgr := newCASEnv(t)
	const goroutines = 4
	const keyspace = 24
	const opsPer = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := cl.NewHandle(seed)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPer; i++ {
				k := uint64(rng.Intn(keyspace) + 1)
				switch rng.Intn(3) {
				case 0:
					h.Insert(k, k)
				case 1:
					h.Delete(k)
				case 2:
					if v, err := h.Get(k); err == nil && v != k {
						t.Errorf("Get(%d) = %d", k, v)
					}
				}
			}
		}(int64(g) + 13)
	}
	wg.Wait()
	mgr.Advance()
	mgr.Collect()

	// Forward-walk the base level: keys strictly ascending, no marked
	// reachable nodes once quiescent.
	h := cl.NewHandle(0)
	ents, err := h.Range(1, MaxKey-1)
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	for i := 1; i < len(ents); i++ {
		if ents[i].Key <= ents[i-1].Key {
			t.Fatalf("keys not ascending: %v", ents)
		}
	}
	for _, ent := range ents {
		if ent.Value != ent.Key {
			t.Fatalf("torn entry %+v", ent)
		}
	}
}

func TestCASDeleteReclaims(t *testing.T) {
	cl, a, mgr := newCASEnv(t)
	h := cl.NewHandle(1)
	base, _ := a.InUse()
	for k := uint64(1); k <= 64; k++ {
		h.Insert(k, k)
	}
	for k := uint64(1); k <= 64; k++ {
		h.Delete(k)
	}
	mgr.Drain()
	blocks, _ := a.InUse()
	if blocks != base {
		t.Fatalf("blocks = %d, want %d: CAS baseline leaked nodes", blocks, base)
	}
}

// TestCASOnVolatileDevice: the baseline is a volatile structure, so on a
// volatile device nothing it does writes back or fences, its node
// allocations included.
func TestCASOnVolatileDevice(t *testing.T) {
	cl, _, _ := newCASEnv(t, nvram.WithVolatile())
	h := cl.NewHandle(1)
	for k := uint64(1); k <= 300; k++ {
		if err := h.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 300; k += 2 {
		if err := h.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if st := cl.dev.Stats(); st.Flushes != 0 || st.Fences != 0 {
		t.Fatalf("baseline issued %d flushes and %d fences on a volatile device", st.Flushes, st.Fences)
	}
}
