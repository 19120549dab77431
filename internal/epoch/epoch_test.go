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

// counter is a Retiree that counts the objects it reclaimed and its
// runs, and keeps the words the last object got back. Collect runs
// retirees on the goroutine that calls it.
type counter struct {
	ran  atomic.Int32
	runs atomic.Int32
	last [2]uint64
}

func (c *counter) RetireRun(offs, auxs []uint64) {
	c.runs.Add(1)
	for i := range offs {
		c.ran.Add(1)
		c.last = [2]uint64{offs[i], auxs[i]}
	}
}

func TestCollectWithNoGuardsRunsAfterAdvance(t *testing.T) {
	m := NewManager()
	var c counter
	m.DeferRetire(&c, 7, 9)
	// Deferred at epoch 1; minProtected is +inf (no guards), so it is
	// immediately below the bound.
	if n := m.Collect(); n != 1 {
		t.Fatalf("Collect = %d, want 1", n)
	}
	if c.ran.Load() != 1 || c.last != [2]uint64{7, 9} {
		t.Fatalf("retiree ran %d times with %v, want once with [7 9]", c.ran.Load(), c.last)
	}
}

// TestCollectRunsEachRetireeOnce: a sweep hands each retiree all of its
// ready objects in one RetireRun, however their retires interleaved, and
// each object with the words its own DeferRetire stashed.
func TestCollectRunsEachRetireeOnce(t *testing.T) {
	m := NewManager()
	var a, b counter
	for i := uint64(0); i < 5; i++ {
		m.DeferRetire(&a, i, 0)
		m.DeferRetire(&b, i, 1)
	}
	if n := m.Collect(); n != 10 {
		t.Fatalf("Collect = %d, want 10", n)
	}
	for _, c := range []struct {
		name string
		c    *counter
		aux  uint64
	}{{"a", &a, 0}, {"b", &b, 1}} {
		if runs, ran := c.c.runs.Load(), c.c.ran.Load(); runs != 1 || ran != 5 {
			t.Errorf("retiree %s: %d runs of %d objects in all, want 1 run of 5", c.name, runs, ran)
		}
		if c.c.last[1] != c.aux {
			t.Errorf("retiree %s got aux %d, want %d", c.name, c.c.last[1], c.aux)
		}
	}
}

// DeferRetire paces reclamation itself: every call ticks the clock, and
// with no guard pinned the 32nd call sweeps every retiree handed over so
// far, with no Advance or Collect from the caller.
func TestDeferRetirePacesTheClock(t *testing.T) {
	m := NewManager()
	var c counter
	before := m.Stats().Advances
	for i := 0; i < 32; i++ {
		if n := c.ran.Load(); n != 0 {
			t.Fatalf("%d retirees ran after %d calls; the sweep is every 32nd", n, i)
		}
		m.DeferRetire(&c, uint64(i), 0)
	}
	if n := c.ran.Load(); n != 32 {
		t.Fatalf("%d of 32 retirees ran", n)
	}
	if got := m.Stats().Advances - before; got != 32 {
		t.Fatalf("Advances grew by %d over 32 retires, want 32", got)
	}
}

// The reclaim-lag clock runs on every 8th retire only: 64 retires,
// all reclaimed, add 8 observations to epoch_reclaim_lag_ns.
func TestReclaimLagIsSampled(t *testing.T) {
	m := NewManager()
	var c counter
	before := mLagNs.Snapshot().Count
	for i := 0; i < 64; i++ {
		m.DeferRetire(&c, uint64(i), 0)
	}
	m.Drain()
	if n := c.ran.Load(); n != 64 {
		t.Fatalf("%d of 64 retirees ran", n)
	}
	if got := mLagNs.Snapshot().Count - before; got != 8 {
		t.Fatalf("reclaim lag observed %d of 64 retires, want 8", got)
	}
}

func TestActiveGuardBlocksReclamation(t *testing.T) {
	m := NewManager()
	g := m.Register()
	g.Enter()
	var c counter
	m.DeferRetire(&c, 0, 0)
	m.Advance()
	if n := m.Collect(); n != 0 {
		t.Fatalf("Collect reclaimed %d under active guard", n)
	}
	if c.ran.Load() != 0 {
		t.Fatal("retiree ran while a guard could still hold a reference")
	}
	g.Exit()
	if n := m.Collect(); n != 1 {
		t.Fatalf("Collect after Exit = %d, want 1", n)
	}
	if c.ran.Load() != 1 {
		t.Fatal("retiree did not run after guard exit")
	}
}

func TestGuardInNewerEpochDoesNotBlockOldGarbage(t *testing.T) {
	m := NewManager()
	g := m.Register()
	var c counter
	m.DeferRetire(&c, 0, 0) // at epoch 1, and advances to 2
	g.Enter()               // pinned at 2
	if n := m.Collect(); n != 1 {
		t.Fatalf("Collect = %d, want 1: guard at epoch 2 cannot see epoch-1 garbage", n)
	}
	g.Exit()
}

func TestSameEpochGarbageIsProtected(t *testing.T) {
	m := NewManager()
	g := m.Register()
	g.Enter() // pinned at 1
	var c counter
	m.DeferRetire(&c, 0, 0) // epoch 1: g may have read the object
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

// Repin lets garbage retired before it be reclaimed under an outermost
// protection, and moves nothing under a nested one.
func TestRepin(t *testing.T) {
	m := NewManager()
	g := m.Register()
	g.Enter()
	var c counter
	m.DeferRetire(&c, 0, 0) // at the guard's epoch, and advances past it
	g.Enter()
	pinned := g.epoch.Load()
	g.Repin()
	if got := g.epoch.Load(); got != pinned {
		t.Fatalf("nested Repin moved the pin from %d to %d", pinned, got)
	}
	if n := m.Collect(); n != 0 {
		t.Fatalf("Collect reclaimed %d under a nested guard", n)
	}
	g.Exit()
	g.Repin()
	if n := m.Collect(); n != 1 {
		t.Fatalf("Collect after an outermost Repin = %d, want 1", n)
	}
	if !g.Active() {
		t.Fatal("Repin released the guard")
	}
	g.Exit()
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

// TestDrain pins a guard while retiring so that DeferRetire's own sweeps
// reclaim nothing, then drains the lot.
func TestDrain(t *testing.T) {
	m := NewManager()
	g := m.Register()
	g.Enter()
	var c counter
	for i := 0; i < 100; i++ {
		m.DeferRetire(&c, uint64(i), 0)
	}
	if n := c.ran.Load(); n != 0 {
		t.Fatalf("%d retirees ran under a guard pinned before they were retired", n)
	}
	g.Exit()
	if n := m.Drain(); n != 100 {
		t.Fatalf("Drain = %d, want 100", n)
	}
	if c.ran.Load() != 100 {
		t.Fatalf("ran = %d, want 100", c.ran.Load())
	}
	if m.Pending() != 0 {
		t.Fatalf("Pending = %d after Drain", m.Pending())
	}
}

func TestDrainPanicsWithActiveGuard(t *testing.T) {
	m := NewManager()
	g := m.Register()
	g.Enter()
	m.DeferRetire(&counter{}, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Drain with active guard did not panic")
		}
	}()
	m.Drain()
}

// parent is a Retiree that retires its child when it runs, as a
// destructor retiring a child object would: the reclamation callback
// itself defers.
type parent struct {
	m     *Manager
	child *counter
}

func (p *parent) RetireRun(offs, _ []uint64) {
	for range offs {
		p.m.DeferRetire(p.child, 0, 0)
	}
}

func TestCallbackMayDefer(t *testing.T) {
	m := NewManager()
	var c counter
	m.DeferRetire(&parent{m, &c}, 0, 0)
	m.Collect()
	m.Collect()
	if c.ran.Load() != 1 {
		t.Fatal("child retired from a retiree never ran")
	}
}

func TestStats(t *testing.T) {
	m := NewManager()
	var c counter
	m.DeferRetire(&c, 0, 0)
	m.DeferRetire(&c, 0, 0)
	m.Advance()
	m.Collect()
	st := m.Stats()
	if st.Deferred != 2 || st.Freed != 2 {
		t.Fatalf("Stats = (%d,%d), want (2,2)", st.Deferred, st.Freed)
	}
	if st.Advances != 3 {
		t.Fatalf("Advances = %d, want 3 (one per retire, one explicit)", st.Advances)
	}
	if st.Pending != 0 {
		t.Fatalf("Pending = %d, want 0", st.Pending)
	}
}

// stressObj is an object the stress test's writer replaces and retires.
type stressObj struct {
	poisoned atomic.Bool
	val      uint64
}

// poisoner retires stress objects by index: reclaiming one poisons it.
type poisoner struct{ objs []*stressObj }

func (p *poisoner) RetireRun(offs, _ []uint64) {
	for _, off := range offs {
		p.objs[off].poisoned.Store(true)
	}
}

// Stress: concurrent readers traverse a shared object graph while a writer
// retires and reuses objects through the manager, which paces its own
// sweeps. The test asserts no object is reclaimed while a reader can still
// reach it (the reader checks a poison flag set by the retiree).
func TestStressNoUseAfterReclaim(t *testing.T) {
	m := NewManager()
	var current atomic.Pointer[stressObj]
	current.Store(&stressObj{val: 1})

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

	const writes = 5000
	retired := &poisoner{objs: make([]*stressObj, writes)}
	for i := 0; i < writes; i++ {
		retired.objs[i] = current.Load()
		current.Store(&stressObj{val: uint64(i)})
		m.DeferRetire(retired, uint64(i), 0)
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

func BenchmarkDeferRetire(b *testing.B) {
	m := NewManager()
	var c counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.DeferRetire(&c, uint64(i), 0)
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
	var c counter
	m.DeferRetire(&c, 0, 0)
	if n := m.Collect(); n != 0 {
		t.Fatalf("Collect = %d under active guard", n)
	}
	g.Exit()
	m.Unregister(g)
	if n := m.Collect(); n != 1 {
		t.Fatalf("Collect after Unregister = %d, want 1", n)
	}
	if c.ran.Load() != 1 {
		t.Fatal("retiree did not run")
	}
}
