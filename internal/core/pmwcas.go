package core

import (
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
	// first (with the blocks ReserveEntry wrote back), while the status is
	// still Free — a crash inside that flush recovers through the
	// Free-with-entries path, which only drops them. Only once every entry
	// is durable does the status flip to Undecided (flushed with the count
	// in the header line), arming the roll-back path, and only then are
	// reserved blocks' bits set, fenced before any install publishes one.
	entryLines := p.flushEntries(d.off, d.n)
	p.dev.Fence()
	p.dev.Store(d.off+descStatusOff, StatusUndecided)
	p.flushHeader(d.off)
	p.dev.Fence()
	var bits uint64
	for _, e := range d.ents[:d.n] {
		if e.reserved {
			p.alloc.MarkAllocated(e.new)
			bits++
		}
	}
	if bits > 0 {
		p.dev.Fence()
	}
	if p.mode == Persistent {
		obs.flushes += entryLines + 1 + bits // flushHeader and each bit are one more
		obs.fences += 2 + min(bits, 1)
	}

	d.h.guard.Enter()
	ok := p.exec(d.off, d.ents[:d.n], &obs)
	d.h.guard.Exit()

	// Commit boundary for the psan persistency sanitizer: a successful
	// Execute is the moment durable state may start depending on values
	// this goroutine observed — verify none of them came off a line that
	// was never flushed. Helpers are not checked here (they carry their
	// own unrelated records); a failed Execute publishes nothing, so its
	// records are dropped. A volatile device never arms the sanitizer.
	if ok {
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
		if obs.timed {
			mExecLat.ObserveSince(obs.lane, t0)
		}
		mFlushesPerOp.Observe(obs.lane, int64(obs.flushes))
		mFencesPerOp.Observe(obs.lane, int64(obs.fences))
	}
	p.retire(d.off, d.idx, ok)
	return ok, nil
}

// target is exec's copy of one descriptor entry: the word it names, where
// the entry lives, its old and new values (the owner's only; a helper
// loads them from the entry when it needs them), and the value
// persistTargets expects to find there.
type target struct {
	addr     nvram.Offset // the target word
	w        nvram.Offset // the entry (word descriptor)
	old, new uint64
	val      uint64 // the value being persisted, without DirtyFlag
}

// loadTargets fills ts[:n] with the descriptor's entries sorted by target
// address: from the owner's DRAM copy own, or, for a helper (own nil),
// loading each address from NVRAM once. Every thread — owner or helper —
// computes the same order, so all Phase-1 acquisitions happen in one
// global order and overlapping operations cannot deadlock each other's
// help chains (§2.2), and targets sharing a line end up adjacent. The
// copy lives only on this thread's stack (the caller's fixed array; no
// make, no sort.Slice closure — exec is on the //pmwcas:hotpath proof);
// the durable entries never move, which keeps torn-flush recovery sound.
// Insertion sort: n is at most MaxWordsPerDescriptor and in practice ≤ 4,
// where quadratic beats the sort package's interface machinery outright.
func (p *Pool) loadTargets(mdesc nvram.Offset, own []entry, n int, ts *[MaxWordsPerDescriptor]target) {
	for i := 0; i < n; i++ {
		t := target{w: wordOff(mdesc, i)}
		if own != nil {
			t.addr, t.old, t.new = own[i].addr, own[i].old, own[i].new
		} else {
			t.addr = p.dev.Load(t.w + wordAddrOff)
		}
		j := i
		for ; j > 0 && ts[j-1].addr > t.addr; j-- {
			ts[j] = ts[j-1]
		}
		ts[j] = t
	}
}

// persistTargets is Persist for a whole descriptor's sorted targets: it
// writes back each distinct line once, then clears each target's dirty
// bit if the word still holds val. Flush before clear, as in Persist: no
// bit is cleared before its line is written back. Persistent mode only.
func (p *Pool) persistTargets(ts []target, o *opObs) {
	line := ^uint64(0)
	for _, t := range ts {
		if l := t.addr / nvram.LineBytes; l != line {
			p.dev.Flush(t.addr)
			line = l
			if o != nil {
				o.flushes++
			}
		}
	}
	for _, t := range ts {
		p.dev.CAS(t.addr, t.val|DirtyFlag, t.val)
	}
}

// exec is the cooperative core of Algorithm 2, runnable by the owner and
// by any helper that encountered the descriptor. It is idempotent: any
// number of threads may execute it concurrently for the same descriptor
// and exactly one outcome is installed. own is the entry source: the
// owner passes its DRAM copy of the entries, a helper passes nil and
// reads them from NVRAM, the only copy it can trust.
func (p *Pool) exec(mdesc nvram.Offset, own []entry, o *opObs) bool {
	helping := own == nil
	n := len(own)
	if helping {
		p.stats.helps.Add(1)
		if metrics.On() {
			metrics.DefaultTrace().Record(metrics.TraceHelp, uint64(mdesc), laneOf(o, mdesc), 0)
		}
		n = int(p.dev.Load(mdesc+descCountOff) & countMask)
	}
	var ts [MaxWordsPerDescriptor]target
	p.loadTargets(mdesc, own, n, &ts)

	// ----- Phase 1: install a descriptor pointer in every target word,
	// in global address order.
	if p.readStatus(mdesc) == StatusUndecided {
		st := StatusSucceeded
	words:
		for _, t := range ts[:n] {
			old := t.old
			if helping {
				old = p.dev.Load(t.w + wordOldOff)
			}
			for {
				rval := p.installMwCASDescriptor(t.w, t.addr, old, mdesc, o)
				switch {
				case rval == old,
					rval&MwCASFlag != 0 && rval&AddressMask == mdesc:
					// Installed by us or a helper.
					continue words
				case rval&MwCASFlag != 0:
					// Clashed with another in-progress PMwCAS: make sure
					// what we saw is durable, help it finish, retry ours.
					if rval&DirtyFlag != 0 {
						p.persist(t.addr, rval, o)
					}
					mInstallRetries.Add(laneOf(o, mdesc), 1)
					p.exec(rval&AddressMask&^DirtyFlag, nil, o)
					continue
				case rval&DirtyFlag != 0:
					// A plain value that merely is not persisted yet; after
					// persisting it may well equal the expected value.
					p.persist(t.addr, rval, o)
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
			for k := range ts[:n] {
				ts[k].val = mdesc | MwCASFlag
			}
			p.persistTargets(ts[:n], o)
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
	// durable status. The decided status cannot change again while this
	// thread can reach the descriptor, so one load serves both purposes.
	cur := p.dev.Load(mdesc + descStatusOff)
	if cur&DirtyFlag != 0 {
		p.persist(mdesc+descStatusOff, cur, o)
	}
	succeeded := cur&^DirtyFlag == StatusSucceeded

	// ----- Phase 2: replace descriptor pointers with final values (new on
	// success, old on failure/rollback), then persist them all at once.
	var t2 time.Time
	if o != nil && o.timed {
		t2 = time.Now()
	}
	field := uint64(wordOldOff)
	if succeeded {
		field = wordNewOff
	}
	expected := mdesc | MwCASFlag | p.dirty
	for k := range ts[:n] {
		t := &ts[k]
		switch {
		case helping:
			t.val = p.dev.Load(t.w + field)
		case succeeded:
			t.val = t.new
		default:
			t.val = t.old
		}
		if !p.dev.CAS(t.addr, expected, t.val|p.dirty) && p.dirty != 0 {
			// The descriptor pointer may sit there already persisted
			// (dirty bit cleared by a reader); swing that form too.
			p.dev.CAS(t.addr, expected&^DirtyFlag, t.val|p.dirty)
		}
	}
	if p.mode == Persistent {
		p.persistTargets(ts[:n], o)
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
			p.exec(v&AddressMask, nil, nil)
			continue
		}
		return v
	}
}
