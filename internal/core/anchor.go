package core

import (
	"fmt"

	"pmwcas/internal/nvram"
)

// This file is the one open protocol of every structure built on the
// pool: its anchor words are created together by one PMwCAS, so a
// crash, a lost race between two opens and a torn cache line all leave
// them either all zero (absent) or all set (published), and the
// structure needs no initialization recovery of its own (§4.4, §5.2).

// OpenAnchors opens the structure whose anchor words are anchors and
// returns their values. While they are not all set it calls create once,
// which must publish every anchor from zero with one PMwCAS issued
// through the handle it is given, allocating any new block into a
// ReserveEntry (PolicyFreeNewOnFailure) so that a lost race or a crash
// frees it. After create the anchors are all set, by this create
// or by a rival's, or the image is corrupt.
//
// Anchors are read with the protocol read, which helps a rival's
// in-flight creation finish and persists a dirty anchor, so none names a
// descriptor or an unpersisted value once OpenAnchors returns. create
// runs with no guard held. The handle OpenAnchors uses is released before
// it returns, leaving neither a registered guard nor cached descriptors.
func (p *Pool) OpenAnchors(anchors []nvram.Offset, create func(*Handle) error) ([]uint64, error) {
	h := p.NewHandle()
	defer h.release()
	vals := make([]uint64, len(anchors))
	for created := false; ; created = true {
		set := true
		for i, a := range anchors {
			vals[i] = h.Read(a)
			set = set && vals[i] != 0
		}
		if set {
			return vals, nil
		}
		if created {
			return nil, fmt.Errorf("torn anchors %#x — image corrupt", vals)
		}
		if err := create(h); err != nil {
			return nil, err
		}
	}
}

// AllocInto reserves a block of at least size bytes, zeroes the lines
// size spans (alloc.Allocator.ZeroExtent), and publishes
// it into target, replacing whatever target held (it is not freed), with
// one PMwCAS {target: cur→block}. The block is handed to the descriptor
// by ReserveEntry (PolicyFreeNewOnFailure), so until the PMwCAS commits
// the descriptor owns it: a crash frees it and leaves target as it was
// (§5.2).
// A rival's change to target between the read and the PMwCAS fails it,
// frees the block, and AllocInto retries on the new value. It runs on a
// handle of its own, released before it returns; the caller holds no
// guard.
func (p *Pool) AllocInto(size uint64, target nvram.Offset) (nvram.Offset, error) {
	h := p.NewHandle()
	// Not deferred: a panic inside Execute leaves the guard active.
	b, err := h.allocInto(size, target)
	h.release()
	return b, err
}

func (h *Handle) allocInto(size uint64, target nvram.Offset) (nvram.Offset, error) {
	ah := h.pool.alloc.NewHandle()
	for {
		d, err := h.AllocateDescriptor(0)
		if err != nil {
			return 0, err
		}
		b, err := ah.Reserve(size)
		if err == nil {
			h.pool.alloc.ZeroExtent(b)
			err = d.ReserveEntry(target, h.Read(target), b, PolicyFreeNewOnFailure)
		}
		if err != nil {
			d.Discard()
			return 0, err
		}
		// Execute sets the block's bit and fences before it publishes.
		ok, err := d.Execute()
		if err != nil {
			return 0, err
		}
		if ok {
			return b, nil
		}
	}
}

// CheckAnchors reads the anchor words of a structure OpenAnchors opens
// from the raw image of a recovered, quiescent store. It returns their
// values with the dirty bit masked, or nil when all are zero (the
// structure was never created), and an error when one holds a descriptor
// pointer or when some are set and others not.
func CheckAnchors(dev *nvram.Device, anchors ...nvram.Offset) ([]uint64, error) {
	vals := make([]uint64, len(anchors))
	set := 0
	for i, a := range anchors {
		raw := dev.Load(a)
		if raw&(MwCASFlag|RDCSSFlag) != 0 {
			return nil, fmt.Errorf("anchor %#x holds descriptor flags: %#x", a, raw)
		}
		if vals[i] = raw &^ DirtyFlag; vals[i] != 0 {
			set++
		}
	}
	switch set {
	case 0:
		return nil, nil
	case len(anchors):
		return vals, nil
	}
	return nil, fmt.Errorf("torn anchors %#x", vals)
}

// release retires a handle its owner is done with: the descriptors in
// its private cache go back to the shared free list and its guard is
// unregistered. The guard must not be active.
func (h *Handle) release() {
	for _, i := range h.cache {
		h.pool.releaseIndex(i)
	}
	h.cache = nil
	h.pool.mgr.Unregister(h.guard)
}
