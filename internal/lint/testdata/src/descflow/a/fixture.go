// Upstream fixture for the descflow analyzer: helpers that retire a
// descriptor parameter (export KillsDescriptor) and one that returns an
// already-retired descriptor (export ReturnsDeadDescriptor).
package a

import "pmwcas/internal/core"

// Commit executes the caller's descriptor: KillsDescriptor[0].
func Commit(d *core.Descriptor) error {
	_, err := d.Execute()
	return err
}

// Drop discards the caller's descriptor: KillsDescriptor[0].
func Drop(d *core.Descriptor) {
	_ = d.Discard()
}

// Finish forwards to Commit; the kill propagates through the local
// fixpoint, so Finish carries KillsDescriptor[0] too.
func Finish(d *core.Descriptor) error {
	return Commit(d)
}

// Inspect only reads the descriptor; no fact.
func Inspect(d *core.Descriptor) int {
	return d.WordCount()
}

// Spent returns a descriptor it has already executed:
// ReturnsDeadDescriptor[0]. Returning it is itself a use after death.
func Spent(h *core.Handle) *core.Descriptor {
	d, err := h.AllocateDescriptor(0)
	if err != nil {
		return nil
	}
	_, _ = d.Execute()
	return d // want `descriptor d used after d\.Execute retired it`
}
