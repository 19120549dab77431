package core

import (
	"sync/atomic"
	"time"

	"pmwcas/internal/metrics"
	"pmwcas/internal/nvram"
)

// This file implements the two-phase PMwCAS execution of paper §4
// (Algorithms 2 and 3): RDCSS descriptor installation, cooperative
// helping, the precommit that persists target words before the status
// flips, and Phase 2 roll-forward/roll-back.

// Execute runs the PMwCAS (paper §2.2, Algorithm 2). It returns true if
// all target words were atomically replaced by their new values; on false
// no new value is (or ever was) visible to any thread. In Persistent mode
// the outcome survives power failure: once Execute returns true the
// operation is durably committed.
//
// After Execute the descriptor is consumed; using it again is an error.
//
//pmwcas:hotpath — the install path of every PMwCAS; one allocation here is a per-operation tax on all five structures
func (d *Descriptor) Execute() (bool, error) {
	if d.done {
		return false, ErrDescriptorDone
	}
	if d.n == 0 {
		return false, ErrEmptyDescriptor
	}
	d.done = true
	p := d.h.pool
	p.checkPoisoned()

	// Observe the operation from the owner's lane. The stack-local obs
	// travels the whole exec path (including helpers the owner recruits)
	// so flushes and fences are charged per operation, not per thread.
	obs := opObs{lane: d.h.lane}
	var t0 time.Time
	on := metrics.On()
	if on {
		mExecutes.Inc(obs.lane)
		metrics.DefaultTrace().Record(metrics.TraceExecute, uint64(d.off), obs.lane, uint64(d.n))
		d.h.ops++
		if d.h.ops&latSampleMask == 0 {
			obs.timed = true
			t0 = time.Now()
		}
	}

	// The descriptor — contents and Undecided status — must be durable
	// before the first descriptor pointer becomes visible: recovery
	// replays whatever the pool says was in flight, so the pool must not
	// name an operation whose definition is not on NVRAM yet (§4.4).
	//
	// Order matters within the descriptor itself: entries are persisted
	// first, while the status is still Free — a crash inside that flush
	// recovers through the Free-with-entries path, which at worst
	// releases reserved memory. Only once every entry is durable does the
	// status flip to Undecided (flushed with the count in the header
	// line), arming the roll-back path.
	p.flushEntries(d.off)
	p.dev.Fence()
	p.dev.Store(d.off+descStatusOff, StatusUndecided)
	p.flushHeader(d.off)
	p.dev.Fence()
	if p.mode == Persistent {
		// flushEntries covers the entry lines, flushHeader one more.
		obs.flushes += (p.size-descWordsOff)/nvram.LineBytes + 1
		obs.fences += 2
	}

	d.h.guard.Enter()
	ok := p.exec(d.off, false, &obs)
	d.h.guard.Exit()

	// Commit boundary for the psan persistency sanitizer: a successful
	// Execute is the moment durable state may start depending on values
	// this goroutine observed — verify none of them came off a line that
	// was never flushed. Helpers are not checked here (they carry their
	// own unrelated records); a failed Execute publishes nothing, so its
	// records are dropped. Volatile mode never flushes by design.
	if ok && p.mode == Persistent {
		p.dev.ShadowCommit()
	} else {
		p.dev.ShadowDrop()
	}

	if ok {
		p.stats.succeeded.Add(1)
	} else {
		p.stats.failed.Add(1)
	}
	if on {
		if ok {
			mSucceeded.Inc(obs.lane)
		} else {
			mFailed.Inc(obs.lane)
		}
		if obs.timed {
			mExecLat.ObserveSince(obs.lane, t0)
		}
		mFlushesPerOp.Observe(obs.lane, int64(obs.flushes))
		mFencesPerOp.Observe(obs.lane, int64(obs.fences))
	}
	p.retire(d.off, d.idx, ok)
	return ok, nil
}

// installOrder fills order[:n] with the descriptor's entry indexes
// sorted by target address. Every thread — owner or helper — computes
// the same order, so all Phase-1 acquisitions happen in one global order
// and overlapping operations cannot deadlock each other's help chains
// (§2.2). The order lives only on this thread's stack (the caller's
// fixed array; no make, no sort.Slice closure — exec is on the
// //pmwcas:hotpath proof); the durable entries never move, which keeps
// torn-flush recovery sound. Insertion sort: n is at most
// MaxWordsPerDescriptor and in practice ≤ 4, where quadratic beats the
// sort package's interface machinery outright.
func (p *Pool) installOrder(mdesc nvram.Offset, n int, order *[MaxWordsPerDescriptor]int) {
	for i := 0; i < n; i++ {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		key := order[i]
		ka := p.dev.Load(wordOff(mdesc, key) + wordAddrOff)
		j := i - 1
		for j >= 0 && p.dev.Load(wordOff(mdesc, order[j])+wordAddrOff) > ka {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = key
	}
}

// exec is the cooperative core of Algorithm 2, runnable by the owner and
// by any helper that encountered the descriptor. It is idempotent: any
// number of threads may execute it concurrently for the same descriptor
// and exactly one outcome is installed.
func (p *Pool) exec(mdesc nvram.Offset, helping bool, o *opObs) bool {
	if helping {
		p.stats.helps.Add(1)
		if metrics.On() {
			lane := laneOf(o, mdesc)
			mHelps.Inc(lane)
			metrics.DefaultTrace().Record(metrics.TraceHelp, uint64(mdesc), lane, 0)
		}
	}
	n := int(p.dev.Load(mdesc+descCountOff) & countMask)

	// ----- Phase 1: install a descriptor pointer in every target word,
	// in global address order.
	if p.readStatus(mdesc) == StatusUndecided {
		st := StatusSucceeded
		var order [MaxWordsPerDescriptor]int
		p.installOrder(mdesc, n, &order)
	words:
		for _, i := range order[:n] {
			w := wordOff(mdesc, i)
			addr := p.dev.Load(w + wordAddrOff)
			old := p.dev.Load(w + wordOldOff)
			for {
				rval := p.installMwCASDescriptor(w, addr, old, mdesc, o)
				switch {
				case rval == old,
					rval&MwCASFlag != 0 && rval&AddressMask == mdesc:
					// Installed by us or a helper.
					continue words
				case rval&MwCASFlag != 0:
					// Clashed with another in-progress PMwCAS: make sure
					// what we saw is durable, help it finish, retry ours.
					if rval&DirtyFlag != 0 {
						p.persist(addr, rval, o)
					}
					mInstallRetries.Add(laneOf(o, mdesc), 1)
					p.exec(rval&AddressMask&^DirtyFlag, true, o)
					continue
				case rval&DirtyFlag != 0:
					// A plain value that merely is not persisted yet; after
					// persisting it may well equal the expected value.
					p.persist(addr, rval, o)
					continue
				default:
					// A clean value different from what we expect: lost.
					st = StatusFailed
					break words
				}
			}
		}

		// Precommit (§4.2.2): all descriptor pointers must be durable
		// before the status flips — Phase 2 exposes new values that other
		// threads may persist decisions on, so recovery must already be
		// able to see (and roll forward) every word this operation covers.
		if st == StatusSucceeded && p.mode == Persistent {
			for i := 0; i < n; i++ {
				w := wordOff(mdesc, i)
				addr := p.dev.Load(w + wordAddrOff)
				p.persist(addr, mdesc|MwCASFlag|DirtyFlag, o)
			}
		}

		// Decide. Exactly one thread's CAS moves Undecided to a final
		// status; everyone else observes the winner's decision.
		if p.dev.CAS(mdesc+descStatusOff, StatusUndecided, st|p.dirty) && metrics.On() {
			var aux uint64
			if st == StatusSucceeded {
				aux = 1
			}
			metrics.DefaultTrace().Record(metrics.TraceDecide, uint64(mdesc), laneOf(o, mdesc), aux)
		}
	}

	// Persist the decision before Phase 2 (§4.3): once any new value is
	// visible, recovery must roll forward, which it can only know from a
	// durable status.
	if p.mode == Persistent {
		if cur := p.dev.Load(mdesc + descStatusOff); cur&DirtyFlag != 0 {
			Persist(p.dev, mdesc+descStatusOff, cur)
			if o != nil {
				o.flushes++
			}
		}
	}
	succeeded := p.readStatus(mdesc) == StatusSucceeded

	// ----- Phase 2: replace descriptor pointers with final values (new on
	// success, old on failure/rollback).
	var t2 time.Time
	if o != nil && o.timed {
		t2 = time.Now()
	}
	for i := 0; i < n; i++ {
		w := wordOff(mdesc, i)
		addr := p.dev.Load(w + wordAddrOff)
		var val uint64
		if succeeded {
			val = p.dev.Load(w + wordNewOff)
		} else {
			val = p.dev.Load(w + wordOldOff)
		}
		expected := mdesc | MwCASFlag | p.dirty
		if !p.dev.CAS(addr, expected, val|p.dirty) && p.dirty != 0 {
			// The descriptor pointer may sit there already persisted
			// (dirty bit cleared by a reader); swing that form too.
			p.dev.CAS(addr, expected&^DirtyFlag, val|p.dirty)
		}
		p.persist(addr, val|p.dirty, o)
	}
	if !t2.IsZero() {
		mPhase2Lat.ObserveSince(o.lane, t2)
	}
	return succeeded
}

// installMwCASDescriptor attempts to place a pointer to the descriptor in
// one target word via RDCSS (Algorithm 3, install_mwcas_descriptor). It
// returns the word's prior content: the expected old value on success,
// our descriptor pointer if a helper won the install, or whatever
// conflicting value/descriptor was found.
//
// RDCSS — install a word-descriptor pointer first, then upgrade it to the
// full-descriptor pointer only if status is still Undecided — prevents a
// delayed thread from re-installing a descriptor for an operation that
// already finished, which would overwrite a later operation's result and
// break linearizability (§4.2).
func (p *Pool) installMwCASDescriptor(wdesc, addr nvram.Offset, old uint64, mdesc nvram.Offset, o *opObs) uint64 {
	ptr := wdesc | RDCSSFlag
	for {
		cur := p.dev.Load(addr)
		switch {
		case cur == old:
			if !p.dev.CAS(addr, old, ptr) {
				mInstallRetries.Add(laneOf(o, mdesc), 1)
				continue // value changed under us; reevaluate
			}
			p.completeInstall(wdesc, addr, old, mdesc)
			return old
		case cur&RDCSSFlag != 0:
			// Another thread's RDCSS is mid-flight here: finish it for
			// them, then retry ours (lock-free helping).
			p.helpCompleteInstall(cur & AddressMask)
		case cur&DirtyFlag != 0 && cur&MwCASFlag == 0:
			// Plain-but-dirty value: persist and reevaluate; it may equal
			// the expected value once clean.
			p.persist(addr, cur, o)
		default:
			return cur
		}
	}
}

// completeInstall finishes an RDCSS whose word descriptor we know
// first-hand (Algorithm 3, complete_install): upgrade to the
// full-descriptor pointer if the operation is still undecided, otherwise
// put the old value back.
func (p *Pool) completeInstall(wdesc, addr nvram.Offset, old uint64, mdesc nvram.Offset) {
	var desired uint64
	if p.readStatus(mdesc) == StatusUndecided {
		desired = mdesc | MwCASFlag | p.dirty
	} else {
		desired = old
	}
	p.dev.CAS(addr, wdesc|RDCSSFlag, desired)
}

// helpCompleteInstall finishes an RDCSS found in a word, reading the word
// descriptor's fields from NVRAM. Safe under the epoch guard: the parent
// descriptor cannot be recycled while we might dereference it.
func (p *Pool) helpCompleteInstall(wdesc nvram.Offset) {
	addr := p.dev.Load(wdesc + wordAddrOff)
	old := p.dev.Load(wdesc + wordOldOff)
	parent := p.dev.Load(wdesc+wordMetaOff) >> metaParentShift
	p.completeInstall(wdesc, addr, old, parent)
}

// Read performs pmwcas_read (Algorithm 3): a read of a word that may be a
// PMwCAS target. It never returns descriptor pointers — encountering an
// in-flight operation, it helps complete it and retries — and in
// Persistent mode it never returns a value that is not durable.
//
// The caller's epoch guard is entered for the duration (helping may
// dereference descriptors).
//
//pmwcas:hotpath — the read path of every index probe; must not allocate even when helping a stalled install
func (h *Handle) Read(addr nvram.Offset) uint64 {
	h.pool.checkPoisoned()
	h.guard.Enter()
	v := h.pool.read(addr)
	h.guard.Exit()
	return v
}

func (p *Pool) read(addr nvram.Offset) uint64 {
	for {
		v := p.dev.Load(addr)
		if v&RDCSSFlag != 0 {
			p.helpCompleteInstall(v & AddressMask)
			continue
		}
		if v&DirtyFlag != 0 {
			p.persist(addr, v, nil)
			v &^= DirtyFlag
		}
		if v&MwCASFlag != 0 {
			p.stats.reads.Add(1)
			mReadHelps.Add(metrics.StripeAt(int(addr/nvram.WordSize)), 1)
			p.exec(v&AddressMask, true, nil)
			continue
		}
		return v
	}
}

// noElide disables traversal flush elision when set. The default (elision
// on) is traversal flush elision: persistence cost scales with writes, not
// traversals. The knob exists so cmd/experiments can measure the delta and
// so operators can fall back to the paper's conservative rule.
var noElide atomic.Bool

// SetFlushElision enables or disables traversal flush elision globally.
func SetFlushElision(on bool) { noElide.Store(!on) }

// FlushElisionEnabled reports whether ReadTraverse may return dirty values
// without flushing them.
func FlushElisionEnabled() bool { return !noElide.Load() }

// ReadTraverse reads a PMwCAS-managed word for navigation only. Unlike
// Read, it may return a value whose dirty bit is set — without flushing
// the line — because a traversal-only value never enters durable state:
// it is either compared (keys), followed (links), or re-validated as the
// expected-old operand of a later PMwCAS, whose install path persists the
// target before acquiring it (see installMwCASDescriptor). This is the
// NVTraverse optimisation; the persistord analyzer statically enforces
// that callers are annotated //pmwcas:traversal and derive no stores from
// the result, and the psan sanitizer checks the same property at runtime.
//
// Words carrying a descriptor pointer are handled exactly like Read:
// the descriptor pointer is persisted before helping, so the helping path
// keeps its recovery guarantees.
//
// The caller's epoch guard is entered for the duration.
//
//pmwcas:hotpath — traversal reads dominate index descends; flush-elided and allocation-free by design
func (h *Handle) ReadTraverse(addr nvram.Offset) uint64 {
	h.pool.checkPoisoned()
	h.guard.Enter()
	v := h.pool.readTraverse(addr)
	h.guard.Exit()
	return v
}

func (p *Pool) readTraverse(addr nvram.Offset) uint64 {
	if p.mode != Persistent || noElide.Load() {
		return p.read(addr)
	}
	for {
		v := p.dev.Load(addr)
		if v&RDCSSFlag != 0 {
			p.helpCompleteInstall(v & AddressMask)
			continue
		}
		if v&MwCASFlag != 0 {
			// Helping dereferences the descriptor, so the pointer must
			// be durable first — same rule as read.
			if v&DirtyFlag != 0 {
				p.persist(addr, v, nil)
			}
			p.stats.reads.Add(1)
			mReadHelps.Add(metrics.StripeAt(int(addr/nvram.WordSize)), 1)
			p.exec(v&AddressMask, true, nil)
			continue
		}
		// Plain value: return it dirty-bit-stripped without persisting.
		return v &^ DirtyFlag
	}
}
