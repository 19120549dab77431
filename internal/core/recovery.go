package core

import (
	"fmt"

	"pmwcas/internal/nvram"
)

// RecoveryStats summarizes one recovery pass over the descriptor pool.
type RecoveryStats struct {
	Scanned       int // descriptors examined (the whole pool)
	RolledForward int // Succeeded descriptors whose new values were (re)installed
	RolledBack    int // Undecided/Failed descriptors reset to old values
	WordsRepaired int // target words that still held descriptor pointers
	CorruptCounts int // descriptors whose durable count exceeded the pool capacity
}

// Recover completes or rolls back every operation that was in flight at
// the crash (paper §4.4). It must run single-threaded, on an allocator
// just rebuilt from its bitmaps (§5.2), and before any application thread
// touches PMwCAS-managed words. Finalize callbacks referenced by
// descriptors must already be registered.
//
// The rules, per descriptor status in the durable image:
//
//   - Succeeded: roll forward — any target word still holding a pointer
//     to this descriptor (or to one of its word descriptors) gets its new
//     value; success-side recycling policies run.
//   - Undecided or Failed: roll back — such words get their old value;
//     failure-side policies run.
//   - Free with a non-zero durable entry count: the operation never
//     existed. Its count is zeroed and nothing is freed: Execute sets a
//     reserved block's bit only once Undecided is durable, so a durable
//     Free descriptor never owns an allocated block (§5.2).
//
// The Free path deliberately does not repair target words. That is sound
// because of an execution-order invariant: descriptor pointers are only
// installed after the descriptor's Undecided status has been flushed
// (Execute persists entries, then the header, then fences, before
// Phase 1 starts). A durable Free status therefore proves no word
// anywhere can durably hold this descriptor's pointer — even with
// opportunistic cache eviction persisting lines the protocol never
// flushed, since the status flush strictly precedes every install.
//
// Every descriptor ends Free with zero count, ready for reuse. Recovery
// is idempotent: a crash during recovery is repaired by running it again.
func (p *Pool) Recover() (RecoveryStats, error) {
	var st RecoveryStats
	var offs, auxs []uint64 // the in-flight descriptors, finalized as one run
	p.checkPoisoned()
	if p.mode != Persistent {
		return st, fmt.Errorf("core: Recover on a %s pool", p.mode)
	}
	for i := 0; i < p.nDesc; i++ {
		st.Scanned++
		d := p.descOff(i)
		status := p.readStatus(d)
		cw := p.dev.Load(d + descCountOff)
		n := int(cw & countMask)
		if n > p.kWord {
			// A torn count cannot occur under the protocol (count and
			// status share a flushed line and are zeroed together), so an
			// oversized count means the image is corrupt. Refuse to walk
			// the wild entries — but surface the corruption in the stats
			// rather than silently zeroing, and durably clamp the count so
			// later passes (finalize, DumpDescriptor, a re-entered
			// recovery) see a self-consistent descriptor.
			st.CorruptCounts++
			n = 0
			p.dev.Store(d+descCountOff, cw&^uint64(countMask))
			p.flushHeader(d)
		}

		switch status {
		case StatusFree:
			if n > 0 {
				p.dev.Store(d+descCountOff, 0)
				p.flushHeader(d)
			}
		case StatusUndecided, StatusFailed, StatusSucceeded:
			var aux uint64
			if status == StatusSucceeded {
				aux = 1
				st.RolledForward++
			} else {
				st.RolledBack++
			}
			ents := p.loadEntries(i, n, uint16(cw>>callbackShift&callbackIDMask))
			st.WordsRepaired += p.repairWords(d, ents, aux == 1)
			offs, auxs = append(offs, d), append(auxs, uint64(i)<<1|aux)
		default:
			return st, fmt.Errorf("core: descriptor %d has corrupt status %#x", i, status)
		}
	}
	if len(offs) > 0 {
		p.RetireRun(offs, auxs)
	}
	// Terminal durability barrier: repairWords stores+flushes target words
	// and the finalize run persists its headers, but a pool with nothing
	// in flight still has the count resets above to order before the
	// first post-recovery operation. Recovery must not hand out
	// descriptors until every repair is durable — a crash in that window
	// would otherwise re-expose words recovery already claims to have
	// repaired.
	p.dev.Fence()
	p.rebuildFreeList()
	return st, nil
}

// loadEntries rebuilds slot i's owner copy from its n durable entries
// and callback ID, as the finalize run reads it, and returns the entries.
func (p *Pool) loadEntries(i, n int, cb uint16) []entry {
	ds := &p.descs[i]
	ds.n, ds.cb = n, cb
	for j := range ds.ents[:n] {
		w := wordOff(p.descOff(i), j)
		ds.ents[j] = entry{
			addr:   p.dev.Load(w + wordAddrOff),
			old:    p.dev.Load(w + wordOldOff),
			new:    p.dev.Load(w + wordNewOff),
			policy: Policy(p.dev.Load(w+wordMetaOff) & metaPolicyMask),
		}
	}
	return ds.ents[:n]
}

// CheckRecovered verifies the pool's post-recovery ground state: every
// descriptor durably Free with a zero entry count, and every descriptor
// on the free list. Crash-sweep harnesses call it right after Recover;
// any violation means recovery left an operation half-finalized.
func (p *Pool) CheckRecovered() error {
	for i := 0; i < p.nDesc; i++ {
		d := p.descOff(i)
		if got := p.readStatus(d); got != StatusFree {
			return fmt.Errorf("core: descriptor %d not Free after recovery (status %s)", i, statusName(got))
		}
		if n := p.dev.Load(d+descCountOff) & countMask; n != 0 {
			return fmt.Errorf("core: descriptor %d has count %d after recovery", i, n)
		}
		if p.mode == Persistent {
			if got := p.dev.PersistedLoad(d+descStatusOff) &^ DirtyFlag; got != StatusFree {
				return fmt.Errorf("core: descriptor %d not durably Free after recovery (persisted status %s)",
					i, statusName(got))
			}
		}
	}
	if free := p.FreeDescriptors(); free != p.nDesc {
		return fmt.Errorf("core: free list holds %d of %d descriptors after recovery", free, p.nDesc)
	}
	return nil
}

// repairWords applies the final value to every target word that still
// holds a pointer into descriptor d, whose entries are ents, and
// persists it. It returns how many words needed repair.
func (p *Pool) repairWords(d nvram.Offset, ents []entry, succeeded bool) int {
	repaired := 0
	for i, e := range ents {
		if e.addr == 0 || !offsetOK(e.addr) || e.addr%nvram.WordSize != 0 {
			continue
		}
		cur := p.dev.Load(e.addr)
		payload := cur & AddressMask
		isMine := (cur&MwCASFlag != 0 && payload == d) ||
			(cur&RDCSSFlag != 0 && payload == wordOff(d, i))
		if !isMine {
			continue
		}
		val := e.old
		if succeeded {
			val = e.new
		}
		p.dev.Store(e.addr, val)
		p.dev.Flush(e.addr)
		repaired++
	}
	return repaired
}

// rebuildFreeList repopulates the volatile free list from descriptor
// statuses. Called at the end of recovery, when everything is Free.
func (p *Pool) rebuildFreeList() {
	p.freeMu.Lock()
	defer p.freeMu.Unlock()
	p.freeList = p.freeList[:0]
	for i := p.nDesc - 1; i >= 0; i-- {
		if p.readStatus(p.descOff(i)) == StatusFree {
			p.freeList = append(p.freeList, i)
		}
	}
}

// DumpDescriptor formats a descriptor's durable state for debugging.
func (p *Pool) DumpDescriptor(i int) string {
	d := p.descOff(i)
	cw := p.dev.Load(d + descCountOff)
	n := int(cw & countMask)
	corrupt := ""
	if n > p.kWord {
		// Same rule as Recover: an oversized count is corruption, and no
		// reader — not even a debug dump — walks the wild entries. (The
		// dump used to clamp to kWord and print k entries of garbage,
		// disagreeing with recovery's zero; both now refuse.)
		corrupt = fmt.Sprintf(" CORRUPT(count %d > capacity %d)", n, p.kWord)
		n = 0
	}
	s := fmt.Sprintf("desc %d @%#x status=%s count=%d cb=%d%s",
		i, d, statusName(p.dev.Load(d+descStatusOff)), n, cw>>callbackShift&callbackIDMask, corrupt)
	for j := 0; j < n; j++ {
		w := wordOff(d, j)
		s += fmt.Sprintf("\n  [%d] addr=%#x old=%#x new=%#x policy=%s",
			j, p.dev.Load(w+wordAddrOff), p.dev.Load(w+wordOldOff),
			p.dev.Load(w+wordNewOff), Policy(p.dev.Load(w+wordMetaOff)&metaPolicyMask))
	}
	return s
}

// SpaceAnalysis reports the pool's NVRAM footprint (paper Appendix B):
// bytes per descriptor and total pool bytes for the configured capacity.
func (p *Pool) SpaceAnalysis() (bytesPerDescriptor, totalBytes uint64) {
	return p.size, p.size * uint64(p.nDesc)
}
