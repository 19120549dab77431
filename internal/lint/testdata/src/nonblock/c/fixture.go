// Root fixture package for nonblock: epoch-guarded regions and
// annotated contracts. The seeded escape is Guarded -> b.Mid ->
// a.Blocky: the mutex is two call hops below the guarded region, and
// the finding lands on the call whose callee carries the MayBlock fact.
package c

import (
	"sync"
	"time"

	"fixtures/nonblock/b"
	"pmwcas/internal/epoch"
)

var sink int

// Guarded holds an epoch guard across its body: everything after Enter
// is a checked region.
func Guarded(g *epoch.Guard, ch chan int, f func() int) {
	g.Enter()
	defer g.Exit()
	sink += <-ch // want `channel receive inside an epoch-guarded region`
	ch <- sink   // want `channel send inside an epoch-guarded region`
	b.Mid()      // want `call to fixtures/nonblock/b.Mid, which may block \(sync.Mutex.Lock\)`
	b.MidWaived() // waived at the leaf: no finding
	sink += f()  // want `dynamic call \(func value or interface method\) inside an epoch-guarded region`
}

// GuardedSelect: a select with no default clause parks the goroutine;
// the finding lands on the communication the region would wait on.
func GuardedSelect(g *epoch.Guard, ch, ch2 chan int) {
	g.Enter()
	defer g.Exit()
	select {
	case v := <-ch: // want `select statement without a default clause inside an epoch-guarded region`
		sink += v
	case v := <-ch2:
		sink -= v
	}
}

// GuardedPoll: a select with a default clause is a non-blocking poll —
// nonblock stays silent.
func GuardedPoll(g *epoch.Guard, ch chan int) {
	g.Enter()
	defer g.Exit()
	select {
	case v := <-ch:
		sink += v
	default:
	}
}

// Unguarded does the same channel work with no guard held: nonblock has
// nothing to say about it.
func Unguarded(ch chan int) {
	sink += <-ch
}

// BeforeEnter blocks before entering the guard: only the op after Enter
// is inside the region.
func BeforeEnter(g *epoch.Guard, ch chan int) {
	sink += <-ch // before the guard: no finding
	g.Enter()
	sink += <-ch // want `channel receive inside an epoch-guarded region`
	g.Exit()
	sink += <-ch // after Exit: no finding
}

// SomePathGuarded: the guard is held on only one path into the receive;
// a region is guarded if any path reaching the op holds a guard.
func SomePathGuarded(g *epoch.Guard, ch chan int, pin bool) {
	if pin {
		g.Enter()
		defer g.Exit()
	}
	sink += <-ch // want `channel receive inside an epoch-guarded region`
}

//pmwcas:hotpath — fixture: the annotation makes the whole body a checked region
func Hot() {
	time.Sleep(time.Nanosecond) // want `time.Sleep in Hot, whose annotation promises`
}

//pmwcas:requires-guard — fixture: runs under its caller's guard
func Helping(mu *sync.Mutex) {
	mu.Lock() // want `sync.Mutex.Lock in Helping, whose annotation promises`
	sink++
	mu.Unlock()
}
