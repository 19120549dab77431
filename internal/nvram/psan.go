//go:build psan

// Persistency sanitizer (psan): the runtime check of persist ordering at
// every commit (DESIGN.md §6.2), beside the storefence and flushfact static
// analyzers. It keeps shadow state next to the device's two images:
//
//   - a per-line *persist epoch*, incremented each time the line is flushed
//     (explicitly or by eviction), and
//   - per-goroutine records of *dirty reads* — Loads whose masked value
//     differs from the persisted image — plus the *derived stores* that
//     later wrote one of those observed values somewhere else.
//
// A derived store is a persist-ordering violation iff the origin line still
// has the same epoch when the operation commits: the committed durable state
// then depends on a value that was never flushed, so a crash could expose a
// pointer (or key/value word) whose referent vanished. The check runs only at
// commit boundaries — Descriptor.Execute's success path and PCASFlush — never
// inside the help path, because helpers legitimately carry unrelated pending
// records of their own.
//
// Taint is matched by value, not by address dataflow: arena offsets are
// distinctive 64-bit values, so "a store wrote exactly the word I read off an
// unflushed line" is a precise-enough dependency signal, and it naturally
// excludes navigation-only reads (keys compared, links followed but never
// re-stored). Values below identityFloor are not distinctive (descriptor
// statuses, counts, flags repeat everywhere), so they carry no taint.
package nvram

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// SanitizerEnabled reports whether this binary was built with the psan
// persistency sanitizer (`-tags psan`).
const SanitizerEnabled = true

// identityFloor is the smallest value with an identity. A smaller one
// (zero, a status 1–3, a count) recurs everywhere, so storing it says
// nothing about where it was read: a descriptor status read off a dirty
// line would be taken for a later store of the same small number. No
// block or line start but the reserved first line lies below it.
const identityFloor = LineBytes

// Caps bound shadow memory per goroutine; sanitizer runs are short and the
// records are pruned at every Fence and cleared at every commit/drop.
const (
	shadowReadCap = 512
	shadowDepCap  = 1024
)

// shadowRead records one observation of a word whose masked value was not
// yet in the persisted image.
type shadowRead struct {
	word  uint64 // word index of the dirty read
	val   uint64 // observed value, shadow mask cleared
	epoch uint64 // origin line's persist epoch at read time
	stack []byte // stack of the read, reported on violation
}

// shadowDep records a store whose value matched an earlier dirty read by the
// same goroutine: durable state now (tentatively) depends on the origin line
// being flushed before commit.
type shadowDep struct {
	origin   uint64 // word index the value was read from
	epoch    uint64 // origin line's epoch at read time
	storedAt uint64 // word index the derived value was stored to
	stack    []byte // stack of the originating read
}

type shadowState struct {
	epochs []atomic.Uint64 // one per line, bumped by flushLine
	mask   atomic.Uint64   // value bits ignored in image comparison (DirtyFlag)

	mu    sync.Mutex
	reads map[int64][]shadowRead
	deps  map[int64][]shadowDep
}

func (d *Device) shadowInit() {
	d.shadow.epochs = make([]atomic.Uint64, len(d.dirty))
	d.shadow.reads = make(map[int64][]shadowRead)
	d.shadow.deps = make(map[int64][]shadowDep)
}

func (d *Device) shadowLoad(i uint64, v uint64) {
	if v == PoisonWord {
		panic(fmt.Sprintf("nvram: load of the poisoned word at offset %#x: its block's filler never wrote it", i*WordSize))
	}
	s := &d.shadow
	mask := s.mask.Load()
	if mask == 0 {
		return // sanitizer not armed (volatile pool or bare device)
	}
	val := v &^ mask
	if val < identityFloor || val == atomic.LoadUint64(&d.persisted[i])&^mask {
		return
	}
	ep := s.epochs[i/LineWords].Load()
	g := goid()
	//lint:allow nonblock — bounded sanitizer bookkeeping; no I/O or nesting under the lock (§6.3)
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.reads[g]
	for idx := range recs {
		if recs[idx].word == i && recs[idx].val == val {
			return
		}
	}
	if len(recs) >= shadowReadCap {
		return
	}
	s.reads[g] = append(recs, shadowRead{word: i, val: val, epoch: ep, stack: debug.Stack()})
}

func (d *Device) shadowStore(i uint64, v uint64) {
	s := &d.shadow
	mask := s.mask.Load()
	if mask == 0 {
		return // sanitizer not armed
	}
	val := v &^ mask
	if val < identityFloor {
		return
	}
	g := goid()
	//lint:allow nonblock — bounded sanitizer bookkeeping; no I/O or nesting under the lock (§6.3)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.reads[g] {
		if r.val != val {
			continue
		}
		if s.epochs[r.word/LineWords].Load() != r.epoch {
			continue // origin flushed since the read: dependency satisfied
		}
		if len(s.deps[g]) >= shadowDepCap {
			return
		}
		s.deps[g] = append(s.deps[g], shadowDep{origin: r.word, epoch: r.epoch, storedAt: i, stack: r.stack})
	}
}

func (d *Device) shadowFlushLine(line uint64) {
	if d.shadow.epochs == nil {
		return // constructor options may flush before shadowInit runs
	}
	d.shadow.epochs[line].Add(1)
}

// shadowFence prunes the calling goroutine's records that have since been
// satisfied by a flush. Fencing never *checks* — staged initialisation
// legitimately fences node contents whose origins are flushed later but
// before the publishing commit.
func (d *Device) shadowFence() {
	s := &d.shadow
	g := goid()
	//lint:allow nonblock — bounded sanitizer bookkeeping; no I/O or nesting under the lock (§6.3)
	s.mu.Lock()
	defer s.mu.Unlock()
	if recs, ok := s.reads[g]; ok {
		kept := recs[:0]
		for _, r := range recs {
			if s.epochs[r.word/LineWords].Load() == r.epoch {
				kept = append(kept, r)
			}
		}
		s.reads[g] = kept
	}
	if deps, ok := s.deps[g]; ok {
		kept := deps[:0]
		for _, dp := range deps {
			if s.epochs[dp.origin/LineWords].Load() == dp.epoch {
				kept = append(kept, dp)
			}
		}
		s.deps[g] = kept
	}
}

// shadowCrash wipes every goroutine's in-flight records: a crash destroys
// all volatile state, including the observations those records model. An
// operation unwound mid-flight by an injected-crash panic never reaches its
// ShadowDrop, so without this an in-place Crash+recover test would carry a
// dead operation's records into the next commit. Epochs are monotonic facts
// about the device and survive.
func (d *Device) shadowCrash() {
	s := &d.shadow
	//lint:allow nonblock — bounded sanitizer bookkeeping; runs at crash time, outside any guard (§6.3)
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.reads)
	clear(s.deps)
}

// shadowClone copies the monotonic shadow state (epochs, mask) into a
// crashed clone so post-crash analysis still knows which lines were ever
// flushed; per-goroutine in-flight records belong to the pre-crash execution
// and start empty in the clone.
func (d *Device) shadowClone(c *Device) {
	c.shadow.mask.Store(d.shadow.mask.Load())
	for i := range d.shadow.epochs {
		c.shadow.epochs[i].Store(d.shadow.epochs[i].Load())
	}
}

// SetShadowMask tells the sanitizer which value bits are volatile metadata
// (the PMwCAS dirty flag) and must be ignored when comparing a word against
// its persisted image.
func (d *Device) SetShadowMask(mask uint64) {
	d.shadow.mask.Store(mask)
}

// ShadowCommit checks, at a PMwCAS commit boundary, that no store made by
// the calling goroutine during this operation derives from a value read off
// a line that has still never been flushed since the read. On violation it
// panics with the offending offsets and the stack of the originating read.
// The goroutine's records are cleared either way: a commit is an operation
// boundary.
func (d *Device) ShadowCommit() {
	s := &d.shadow
	g := goid()
	//lint:allow nonblock — bounded record handoff at the commit boundary; no I/O under the lock (§6.3)
	s.mu.Lock()
	deps := s.deps[g]
	delete(s.deps, g)
	delete(s.reads, g)
	s.mu.Unlock()

	var pending []shadowDep
	for _, dp := range deps {
		if s.epochs[dp.origin/LineWords].Load() == dp.epoch {
			pending = append(pending, dp)
		}
	}
	if len(pending) == 0 {
		return
	}
	// Grace period: a concurrent PMwCAS that is between its Phase-2 CASes
	// and the persist that immediately follows them has already durably
	// committed (its status word persisted first), so a value observed in
	// that window is recoverable even though the origin line's flush has
	// not landed yet. That flush is inevitably coming — wait it out
	// briefly before declaring a violation. Genuinely never-flushed lines
	// stay unflushed forever and still panic.
	for spin := 0; spin < 20000 && len(pending) > 0; spin++ {
		runtime.Gosched()
		if spin > 1000 && spin%1000 == 0 {
			//lint:allow nonblock — sanitizer grace period on the violation path only; diagnostics builds, never armed in production (§6.3)
			time.Sleep(time.Millisecond)
		}
		kept := pending[:0]
		for _, dp := range pending {
			if s.epochs[dp.origin/LineWords].Load() == dp.epoch {
				kept = append(kept, dp)
			}
		}
		pending = kept
	}
	if len(pending) > 0 {
		bad := &pending[0]
		panic(fmt.Sprintf(
			"psan: commit depends on unflushed line: value stored at offset %#x derives from dirty read of offset %#x (line %d, epoch %d never advanced)\noriginating read:\n%s",
			bad.storedAt*WordSize, bad.origin*WordSize, bad.origin/LineWords, bad.epoch, bad.stack))
	}
}

// ShadowDrop discards the calling goroutine's pending shadow records. Called
// when an operation aborts (Execute failure, Descriptor.Discard) so stale
// records cannot leak into the next commit's check.
func (d *Device) ShadowDrop() {
	s := &d.shadow
	g := goid()
	//lint:allow nonblock — bounded record drop on the abort path; no I/O under the lock (§6.3)
	s.mu.Lock()
	delete(s.deps, g)
	delete(s.reads, g)
	s.mu.Unlock()
}

// ShadowLineEpoch returns the persist epoch of the given line (test hook).
func (d *Device) ShadowLineEpoch(line uint64) uint64 {
	return d.shadow.epochs[line].Load()
}

// ShadowPending returns the total outstanding dirty-read and derived-store
// records across all goroutines (test hook).
func (d *Device) ShadowPending() (reads, deps int) {
	s := &d.shadow
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.reads {
		reads += len(r)
	}
	for _, dp := range s.deps {
		deps += len(dp)
	}
	return reads, deps
}

// goid parses the current goroutine id from the runtime stack header
// ("goroutine N [..."). Slow, but psan is a diagnostics build.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[len("goroutine "):n]
	var id int64
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
