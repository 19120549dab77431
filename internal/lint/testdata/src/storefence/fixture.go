// Fixtures for the storefence analyzer: a Device.Store must be followed
// by a write-back on at least one path out of the function.
package storefence

import (
	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

// The protocol analyzers only run over files that reference internal/core.
var _ = core.DirtyFlag

type wal struct {
	dev  *nvram.Device
	head nvram.Offset
}

func (w *wal) badStoreAndReturn(v uint64) {
	w.dev.Store(w.head, v) // want `never followed by a Flush`
}

func (w *wal) goodStoreFlushFence(v uint64) {
	w.dev.Store(w.head, v)
	w.dev.Flush(w.head)
	w.dev.Fence()
}

// goodFlushViaHelper: a callee whose name says it persists counts as the
// write-back.
func (w *wal) goodFlushViaHelper(v uint64) {
	w.dev.Store(w.head, v)
	w.persistHead()
}

// goodFlushOnHappyPathOnly: the check is one-sided — an error unwind that
// skips the flush discards the work anyway; one flushing path suffices.
func (w *wal) goodFlushOnHappyPathOnly(v uint64, abort bool) {
	w.dev.Store(w.head, v)
	if abort {
		return
	}
	w.dev.Flush(w.head)
	w.dev.Fence()
}

func (w *wal) goodSuppressed(v uint64) {
	//lint:allow storefence — scratch word, rebuilt from the log on recovery
	w.dev.Store(w.head, v)
}

func (w *wal) persistHead() {
	w.dev.Flush(w.head)
	w.dev.Fence()
}

// goodFilledThenActivated: the stores fill a reserved block, and the
// Activate that takes the block writes back every line of the reservation.
func (w *wal) goodFilledThenActivated(ah *alloc.Handle, v uint64) {
	b, err := ah.Reserve(64)
	if err != nil {
		return
	}
	w.dev.Store(b, v)
	ah.Activate(b, w.head)
}

// goodFilledThenReserveEntry: a descriptor entry taking the block writes
// it back the same way.
func (w *wal) goodFilledThenReserveEntry(ah *alloc.Handle, d *core.Descriptor, v uint64) error {
	b, err := ah.Reserve(64)
	if err != nil {
		return err
	}
	w.dev.Store(b, v)
	return d.ReserveEntry(w.head, 0, b, core.PolicyFreeNewOnFailure)
}

// badFilledNoHandoff: the block is filled but never handed over here.
func (w *wal) badFilledNoHandoff(ah *alloc.Handle, v uint64) nvram.Offset {
	b, err := ah.Reserve(64)
	if err != nil {
		return 0
	}
	w.dev.Store(b, v) // want `never followed by a Flush`
	return b
}

// badHandoffByNameOnly: a callee merely named like a handoff writes
// nothing back.
func (w *wal) badHandoffByNameOnly(v uint64) {
	w.dev.Store(w.head, v) // want `never followed by a Flush`
	w.Activate(w.head)
}

func (w *wal) Activate(nvram.Offset) {}
