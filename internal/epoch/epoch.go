// Package epoch implements epoch-based resource reclamation for lock-free
// data structures (paper §5.1, citing [19]).
//
// Threads register once and obtain a Guard. A thread must hold a
// protection (Guard.Enter / Guard.Exit) around any window in which it may
// dereference memory that another thread could concurrently retire. When
// an object is removed from a structure it is not freed immediately;
// instead it is handed to DeferRetire with the current global epoch
// recorded as its recycle epoch. Its Retiree runs only after every
// registered thread has been observed outside any epoch older than or
// equal to the recycle epoch — at that point no thread can still hold a
// reference. DeferRetire also paces the clock: it advances the epoch on
// every retire and sweeps the garbage list on every 32nd, so callers
// never drive Advance or Collect themselves. A sweep hands each Retiree
// all of its ready objects as one run, so a retiree that persists what
// it frees pays its barriers once per sweep, not once per object.
//
// A key property the paper relies on (§5.1): garbage lists do not need to
// be persistent. They exist only to protect concurrent readers while the
// system is up; after a crash, recovery is single-threaded and scans the
// durable descriptor pool directly.
package epoch

import (
	"sync"
	"sync/atomic"
	"time"

	"pmwcas/internal/metrics"
)

// Observability (DRAM-only; see internal/metrics). Guard hold time is
// sampled 1-in-64 so the per-Enter cost on the read hot path stays one
// counter increment; reclamation lag is exact — DeferRetire already
// takes a lock, one timestamp does not change its cost class.
var (
	mHoldNs   = metrics.NewHistogram("epoch_guard_hold_ns")
	mLagNs    = metrics.NewHistogram("epoch_reclaim_lag_ns")
	mCollects = metrics.NewCounter("epoch_collects")
)

// holdSampleMask samples every 64th outermost Enter/Exit pair.
const holdSampleMask = 63

// idle marks a guard that is not inside any epoch. Epochs start at 1 so 0
// can never be a legitimate protected epoch.
const idle = uint64(0)

// collectEvery is the sweep cadence: DeferRetire runs Collect on every
// collectEvery-th retire, amortizing the sweep over the retires between.
const collectEvery = 32

// Manager is a global epoch clock plus the set of registered guards.
type Manager struct {
	global atomic.Uint64

	mu     sync.Mutex
	guards []*Guard

	// garbage is guarded by gmu. Entries are appended by DeferRetire and
	// drained front-first by Collect; entries are in non-decreasing epoch
	// order because DeferRetire stamps the current global epoch.
	gmu        sync.Mutex
	garbage    []deferred
	offs, auxs []uint64 // garbage[i]'s two words, in step with garbage

	deferred atomic.Uint64 // total DeferRetire calls; paces Collect
	freed    atomic.Uint64 // retirees run
	advances atomic.Uint64 // Advance calls (epoch clock ticks)
}

// Stats is a snapshot of a manager's cumulative activity.
type Stats struct {
	Advances uint64 // epoch clock ticks since creation
	Deferred uint64 // objects handed to DeferRetire
	Freed    uint64 // retirees run
	Pending  uint64 // deferred objects not yet reclaimed
	Guards   uint64 // guards currently registered (gauge, not cumulative)
}

type deferred struct {
	epoch uint64
	at    int64 // UnixNano at DeferRetire, 0 when metrics were off
	r     Retiree
}

// Retiree is what DeferRetire schedules: an existing object plus two
// plain words, rather than a closure, because a closure capturing locals
// heap-allocates at every retire on //pmwcas:hotpath fast paths while an
// interface holding an existing pointer does not. A sweep calls
// RetireRun once per retiree with every ready object that retiree
// scheduled: offs[i] and auxs[i] are the two words one DeferRetire
// stashed. The slices are the retiree's for the call (it may reorder or
// overwrite them) and must not be kept. RetireRun runs on whichever
// goroutine triggers reclamation, possibly on two at once with disjoint
// runs; it must not block and must tolerate running long after the
// DeferRetire calls. Implementations are compared with ==, so they must
// be comparable (a pointer is).
type Retiree interface {
	RetireRun(offs, auxs []uint64)
}

// NewManager creates a manager with the epoch clock at 1.
func NewManager() *Manager {
	m := &Manager{}
	m.global.Store(1)
	return m
}

// Register adds a participant and returns its Guard. Guards are
// goroutine-affine in the same way the paper's threads are: a Guard must
// not be used concurrently from multiple goroutines. In particular, do
// not hand a guard to a new goroutine:
//
//	g := m.Register()
//	go func() { g.Enter(); ... }() // WRONG: register inside the goroutine
//
// (pmwcaslint's guardfact analyzer reports this pattern.)
func (m *Manager) Register() *Guard {
	g := &Guard{mgr: m, lane: metrics.NextStripe()}
	m.mu.Lock()
	m.guards = append(m.guards, g)
	m.mu.Unlock()
	return g
}

// Unregister removes the guard from the manager. A long-lived manager
// serving short-lived goroutines (one guard per connection, say) must
// unregister, or the guard list grows without bound and every Collect
// scans dead entries. The guard must not be active; unregistering while
// inside an epoch would silently unpin memory another thread still
// protects, so that is a panic. After Unregister the guard is dead:
// any further Enter panics.
func (m *Manager) Unregister(g *Guard) {
	if g.mgr != m {
		panic("epoch: Unregister of a guard from a different manager")
	}
	if g.Active() {
		panic("epoch: Unregister of an active guard (missing Exit)")
	}
	g.dead = true
	m.mu.Lock()
	for i, o := range m.guards {
		if o == g {
			last := len(m.guards) - 1
			m.guards[i] = m.guards[last]
			m.guards[last] = nil
			m.guards = m.guards[:last]
			break
		}
	}
	m.mu.Unlock()
}

// Epoch returns the current global epoch.
func (m *Manager) Epoch() uint64 { return m.global.Load() }

// Advance increments the global epoch. The paper leaves the advancing
// policy to the user ("advanced by user-defined events, e.g., by memory
// usage or physical time"); here DeferRetire advances on every retire,
// so garbage ages past active guards quickly. Drain and tests call it
// directly.
func (m *Manager) Advance() uint64 {
	m.advances.Add(1)
	return m.global.Add(1)
}

// DeferRetire schedules (off, aux) for r's RetireRun once no guard can
// still be inside an epoch <= the current one, then advances the epoch
// (one atomic add) and, on every collectEvery-th call, sweeps the
// garbage list. Hot retire paths use it: deferring reclamation captures
// no closure (only the garbage list's growth allocates).
func (m *Manager) DeferRetire(r Retiree, off, aux uint64) {
	e := m.global.Load()
	var at int64
	if metrics.On() {
		at = time.Now().UnixNano()
	}
	//lint:allow nonblock — bounded append to the deferred list; Collect detaches under the same lock but runs retirees outside it (§6.3)
	m.gmu.Lock()
	m.garbage = append(m.garbage, deferred{epoch: e, at: at, r: r})
	m.offs = append(m.offs, off)
	m.auxs = append(m.auxs, aux)
	m.gmu.Unlock()
	m.Advance()
	if m.deferred.Add(1)%collectEvery == 0 {
		//lint:allow hotpath — amortized epoch sweep, 1 in 32 retires: each retiree frees its whole run behind one set of barriers, and that cost is counted in the per-op bill (§6.3)
		m.Collect()
	}
}

// minProtected returns the smallest epoch any guard is currently inside,
// or ^0 if every guard is idle.
func (m *Manager) minProtected() uint64 {
	min := ^uint64(0)
	//lint:allow nonblock — bounded scan of the guard list; no I/O, no nesting under the lock (§6.3)
	m.mu.Lock()
	for _, g := range m.guards {
		if e := g.epoch.Load(); e != idle && e < min {
			min = e
		}
	}
	m.mu.Unlock()
	return min
}

// Collect reclaims every deferred object whose recycle epoch is strictly
// below the minimum protected epoch, and returns how many it reclaimed.
// An object deferred at epoch e is safe once every thread is idle or in an
// epoch > e; advancing the clock after retiring guarantees progress. Each
// retiree's RetireRun runs once, with all of its ready objects.
func (m *Manager) Collect() int {
	safeBelow := m.minProtected()

	// Detach the reclaimable prefix under the lock, run retirees outside
	// it: a retiree may itself DeferRetire (e.g., a destructor retiring a
	// child object) without self-deadlock.
	//lint:allow nonblock — bounded detach of the reclaimable prefix; retirees run after Unlock (§6.3)
	m.gmu.Lock()
	i := 0
	for i < len(m.garbage) && m.garbage[i].epoch < safeBelow {
		i++
	}
	ready, offs, auxs := m.garbage[:i:i], m.offs[:i:i], m.auxs[:i:i]
	m.garbage, m.offs, m.auxs = m.garbage[i:], m.offs[i:], m.auxs[i:]
	m.gmu.Unlock()

	if len(ready) > 0 && metrics.On() {
		now := time.Now().UnixNano()
		for i, d := range ready {
			if d.at != 0 {
				mLagNs.Observe(metrics.StripeAt(i), now-d.at)
			}
		}
	}
	// Group the detached objects by retiree in place (there are a few
	// retirees, so a swap pass per retiree is cheap), one run each.
	for lo := 0; lo < len(ready); {
		r, hi := ready[lo].r, lo+1
		for j := hi; j < len(ready); j++ {
			if ready[j].r == r {
				ready[hi], ready[j] = ready[j], ready[hi]
				offs[hi], offs[j] = offs[j], offs[hi]
				auxs[hi], auxs[j] = auxs[j], auxs[hi]
				hi++
			}
		}
		r.RetireRun(offs[lo:hi], auxs[lo:hi])
		lo = hi
	}
	mCollects.Inc(metrics.StripeAt(int(safeBelow)))
	m.freed.Add(uint64(len(ready)))
	return len(ready)
}

// Drain advances the epoch and collects until the garbage list is empty.
// It must only be called while no guard is inside an epoch (e.g., at
// shutdown); otherwise it spins forever on the protected prefix.
func (m *Manager) Drain() int {
	total := 0
	for {
		m.Advance()
		n := m.Collect()
		total += n
		m.gmu.Lock()
		empty := len(m.garbage) == 0
		m.gmu.Unlock()
		if empty {
			return total
		}
		if n == 0 {
			// Nothing reclaimable and garbage remains: a guard is active.
			panic("epoch: Drain called with active guards")
		}
	}
}

// Pending returns the number of deferred objects not yet reclaimed.
func (m *Manager) Pending() int {
	m.gmu.Lock()
	defer m.gmu.Unlock()
	return len(m.garbage)
}

// Guards returns the number of currently registered guards. A steady
// count across connection churn is the leak check for per-connection
// registration: every Register must be balanced by an Unregister.
func (m *Manager) Guards() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.guards)
}

// Stats returns a snapshot of the manager's cumulative counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Advances: m.advances.Load(),
		Deferred: m.deferred.Load(),
		Freed:    m.freed.Load(),
		Pending:  uint64(m.Pending()),
		Guards:   uint64(m.Guards()),
	}
}

// A Guard is one thread's participation handle.
type Guard struct {
	mgr   *Manager
	epoch atomic.Uint64 // idle or the epoch this guard is pinned in
	depth int           // reentrancy count; single-goroutine access only
	dead  bool          // set by Unregister; any further Enter panics

	lane   metrics.Stripe
	enters uint64 // outermost Enter count, drives hold-time sampling
	t0     int64  // UnixNano of a sampled outermost Enter, else 0
}

// Enter pins the guard in the current global epoch. Enter/Exit pairs may
// nest; only the outermost pair changes the pinned epoch. While pinned,
// memory retired at this epoch or later cannot be reclaimed.
//
// Enter panics on a guard that was never registered (a zero Guard) or
// that has been unregistered. Such a guard is invisible to minProtected,
// so "protection" through it would be silent use-after-free: the manager
// would reclaim memory the caller believes is pinned. Failing loudly here
// turns that heisenbug into an immediate stack trace.
//
//pmwcas:hotpath — brackets every index operation; an allocation here is a per-op tax on all structures
func (g *Guard) Enter() {
	if g.mgr == nil {
		panic("epoch: Enter on an unregistered Guard (obtain guards from Manager.Register)")
	}
	if g.dead {
		panic("epoch: Enter on an unregistered guard (Unregister already ran)")
	}
	if g.depth == 0 {
		g.epoch.Store(g.mgr.global.Load())
		g.enters++
		if g.enters&holdSampleMask == 0 && metrics.On() {
			g.t0 = time.Now().UnixNano()
		}
	}
	g.depth++
}

// Exit releases the outermost protection. It panics on unbalanced use —
// that is always a structural bug in the caller.
//
//pmwcas:hotpath — brackets every index operation; an allocation here is a per-op tax on all structures
func (g *Guard) Exit() {
	if g.depth == 0 {
		panic("epoch: Exit without matching Enter")
	}
	g.depth--
	if g.depth == 0 {
		if g.t0 != 0 {
			mHoldNs.Observe(g.lane, time.Now().UnixNano()-g.t0)
			g.t0 = 0
		}
		g.epoch.Store(idle)
	}
}

// Repin moves an outermost protection to the current global epoch, as an
// Exit and Enter would, for a caller that holds nothing it read under
// the guard: a reader that keeps retrying then no longer holds back
// reclamation. Under a nested Enter it does nothing, since an outer
// caller may still hold what it read.
func (g *Guard) Repin() {
	if g.depth == 1 {
		g.epoch.Store(g.mgr.global.Load())
	}
}

// Active reports whether the guard currently holds a protection.
func (g *Guard) Active() bool { return g.depth > 0 }

// Manager returns the manager this guard is registered with.
func (g *Guard) Manager() *Manager { return g.mgr }
