// Fixture for descflow inside the protocol package: this directory's
// import path ends in pmwcas/internal/core, so it gets core's exemption.
// Core exports no facts — its helping machinery retires other threads'
// descriptors by design — but a use after its own Execute/Discard is
// still a use after death.
package core

import (
	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

func badAddAfterDiscard(h *core.Handle, addr nvram.Offset) error {
	d, err := h.AllocateDescriptor(0)
	if err != nil {
		return err
	}
	_ = d.Discard()
	return d.AddWord(addr, 0, 1) // want `descriptor d used after d\.Discard retired it`
}

// retire would export KillsDescriptor[0] anywhere else; here it exports
// nothing, so goodAfterHelper's later use is not a finding.
func retire(d *core.Descriptor) { _ = d.Discard() }

func goodAfterHelper(h *core.Handle) int {
	d, err := h.AllocateDescriptor(0)
	if err != nil {
		return 0
	}
	retire(d)
	return d.WordCount()
}
