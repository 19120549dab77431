//lint:file-allow guardfact — lifecycle tests pin and release the epoch at explicit
// points (Exit mid-test, between Collects); a t.Fatal path stranding a guard only
// happens in an already-failed test.

package epoch

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCollectWithNoGuardsRunsAfterAdvance(t *testing.T) {
	m := NewManager()
	var ran atomic.Int32
	m.Defer(func() { ran.Add(1) })
	// Deferred at epoch 1; minProtected is +inf (no guards), so it is
	// immediately below the bound.
	if n := m.Collect(); n != 1 {
		t.Fatalf("Collect = %d, want 1", n)
	}
	if ran.Load() != 1 {
		t.Fatal("callback did not run")
	}
}

func TestActiveGuardBlocksReclamation(t *testing.T) {
	m := NewManager()
	g := m.Register()
	g.Enter()
	var ran atomic.Int32
	m.Defer(func() { ran.Add(1) })
	m.Advance()
	if n := m.Collect(); n != 0 {
		t.Fatalf("Collect reclaimed %d under active guard", n)
	}
	if ran.Load() != 0 {
		t.Fatal("callback ran while a guard could still hold a reference")
	}
	g.Exit()
	if n := m.Collect(); n != 1 {
		t.Fatalf("Collect after Exit = %d, want 1", n)
	}
	if ran.Load() != 1 {
		t.Fatal("callback did not run after guard exit")
	}
}

func TestGuardInNewerEpochDoesNotBlockOldGarbage(t *testing.T) {
	m := NewManager()
	g := m.Register()
	var ran atomic.Int32
	m.Defer(func() { ran.Add(1) }) // epoch 1
	m.Advance()                    // epoch 2
	g.Enter()                      // pinned at 2
	if n := m.Collect(); n != 1 {
		t.Fatalf("Collect = %d, want 1: guard at epoch 2 cannot see epoch-1 garbage", n)
	}
	g.Exit()
}

func TestSameEpochGarbageIsProtected(t *testing.T) {
	m := NewManager()
	g := m.Register()
	g.Enter() // pinned at 1
	var ran atomic.Int32
	m.Defer(func() { ran.Add(1) }) // epoch 1: g may have read the object
	if n := m.Collect(); n != 0 {
		t.Fatalf("Collect reclaimed same-epoch garbage under guard")
	}
	g.Exit()
}

func TestNestedEnterExit(t *testing.T) {
	m := NewManager()
	g := m.Register()
	g.Enter()
	outer := g.epoch.Load()
	m.Advance()
	g.Enter() // nested: must not re-pin at the newer epoch
	if got := g.epoch.Load(); got != outer {
		t.Fatalf("nested Enter moved pin from %d to %d", outer, got)
	}
	g.Exit()
	if !g.Active() {
		t.Fatal("guard inactive after inner Exit")
	}
	g.Exit()
	if g.Active() {
		t.Fatal("guard active after outer Exit")
	}
}

func TestExitWithoutEnterPanics(t *testing.T) {
	m := NewManager()
	g := m.Register()
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Exit did not panic")
		}
	}()
	g.Exit()
}

func TestDrain(t *testing.T) {
	m := NewManager()
	var ran atomic.Int32
	for i := 0; i < 100; i++ {
		m.Defer(func() { ran.Add(1) })
		m.Advance()
	}
	if n := m.Drain(); n != 100 {
		t.Fatalf("Drain = %d, want 100", n)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran = %d, want 100", ran.Load())
	}
	if m.Pending() != 0 {
		t.Fatalf("Pending = %d after Drain", m.Pending())
	}
}

func TestDrainPanicsWithActiveGuard(t *testing.T) {
	m := NewManager()
	g := m.Register()
	g.Enter()
	m.Defer(func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Drain with active guard did not panic")
		}
	}()
	m.Drain()
}

func TestCallbackMayDefer(t *testing.T) {
	m := NewManager()
	var ran atomic.Int32
	m.Defer(func() {
		m.Defer(func() { ran.Add(1) })
	})
	m.Advance()
	m.Collect()
	m.Advance()
	m.Collect()
	if ran.Load() != 1 {
		t.Fatal("nested Defer from callback never ran")
	}
}

func TestStats(t *testing.T) {
	m := NewManager()
	m.Defer(func() {})
	m.Defer(func() {})
	m.Advance()
	m.Collect()
	st := m.Stats()
	if st.Deferred != 2 || st.Freed != 2 {
		t.Fatalf("Stats = (%d,%d), want (2,2)", st.Deferred, st.Freed)
	}
	if st.Advances == 0 {
		t.Fatal("Advance not counted")
	}
	if st.Pending != 0 {
		t.Fatalf("Pending = %d, want 0", st.Pending)
	}
}

// Stress: concurrent readers traverse a shared object graph while a writer
// retires and reuses objects through the manager. The test asserts no
// object is reclaimed while a reader can still reach it (the reader checks
// a poison flag set by the callback).
func TestStressNoUseAfterReclaim(t *testing.T) {
	type obj struct {
		poisoned atomic.Bool
		val      uint64
	}
	m := NewManager()
	var current atomic.Pointer[obj]
	current.Store(&obj{val: 1})

	const readers = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	var failures atomic.Int32

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := m.Register()
			for !stop.Load() {
				g.Enter()
				o := current.Load()
				if o.poisoned.Load() {
					failures.Add(1)
				}
				_ = o.val
				g.Exit()
			}
		}()
	}

	for i := 0; i < 5000; i++ {
		old := current.Load()
		current.Store(&obj{val: uint64(i)})
		m.Defer(func() { old.poisoned.Store(true) })
		if i%16 == 0 {
			m.Advance()
			m.Collect()
		}
	}
	stop.Store(true)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d reader(s) observed a reclaimed object", failures.Load())
	}
}

func BenchmarkEnterExit(b *testing.B) {
	m := NewManager()
	g := m.Register()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Enter()
		g.Exit()
	}
}

func BenchmarkDeferCollect(b *testing.B) {
	m := NewManager()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Defer(func() {})
		if i%64 == 0 {
			m.Advance()
			m.Collect()
		}
	}
	m.Drain()
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want panic containing %q", want)
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, want) {
			t.Fatalf("panic = %v; want substring %q", r, want)
		}
	}()
	fn()
}

func TestEnterOnZeroGuardPanics(t *testing.T) {
	var g Guard
	mustPanic(t, "unregistered", g.Enter)
}

func TestEnterAfterUnregisterPanics(t *testing.T) {
	m := NewManager()
	g := m.Register()
	g.Enter()
	g.Exit()
	m.Unregister(g)
	mustPanic(t, "unregistered", g.Enter)
}

func TestUnregisterActiveGuardPanics(t *testing.T) {
	m := NewManager()
	g := m.Register()
	g.Enter()
	mustPanic(t, "active", func() { m.Unregister(g) })
	g.Exit()
}

func TestUnregisterForeignGuardPanics(t *testing.T) {
	m1, m2 := NewManager(), NewManager()
	g := m1.Register()
	mustPanic(t, "different manager", func() { m2.Unregister(g) })
}

func TestUnregisterUnblocksReclamation(t *testing.T) {
	m := NewManager()
	g := m.Register()
	g.Enter()
	// A forgotten guard that merely Exits still leaves a registry entry;
	// Unregister removes it so minProtected no longer scans it.
	var ran atomic.Int32
	m.Defer(func() { ran.Add(1) })
	if n := m.Collect(); n != 0 {
		t.Fatalf("Collect = %d under active guard", n)
	}
	g.Exit()
	m.Unregister(g)
	if n := m.Collect(); n != 1 {
		t.Fatalf("Collect after Unregister = %d, want 1", n)
	}
	if ran.Load() != 1 {
		t.Fatal("callback did not run")
	}
}
