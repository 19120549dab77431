// Same-body fixture for the descflow analyzer: a descriptor is
// single-shot; after Execute or Discard in the same function it must not
// be touched again.
package samebody

import (
	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

func badAddAfterExecute(h *core.Handle, addr nvram.Offset) error {
	d, err := h.AllocateDescriptor(0)
	if err != nil {
		return err
	}
	if err := d.AddWord(addr, 0, 1); err != nil {
		return err
	}
	if _, err := d.Execute(); err != nil {
		return err
	}
	return d.AddWord(addr, 1, 2) // want `descriptor d used after d\.Execute retired it`
}

func badUseAfterDiscard(h *core.Handle) int {
	d, err := h.AllocateDescriptor(0)
	if err != nil {
		return 0
	}
	_ = d.Discard()
	return d.WordCount() // want `descriptor d used after d\.Discard retired it`
}

func goodFreshAllocation(h *core.Handle, addr nvram.Offset) error {
	d, err := h.AllocateDescriptor(0)
	if err != nil {
		return err
	}
	if _, err := d.Execute(); err != nil {
		return err
	}
	d, err = h.AllocateDescriptor(0) // rebinding revives the variable
	if err != nil {
		return err
	}
	return d.AddWord(addr, 0, 1)
}

func goodSingleShot(h *core.Handle, addr nvram.Offset) error {
	d, err := h.AllocateDescriptor(0)
	if err != nil {
		return err
	}
	if err := d.AddWord(addr, 0, 1); err != nil {
		_ = d.Discard()
		return err
	}
	_, err = d.Execute()
	return err
}

func goodSuppressed(h *core.Handle) nvram.Offset {
	d, _ := h.AllocateDescriptor(0)
	_, _ = d.Execute()
	//lint:allow descflow — Offset is a stable identity, safe to read after retirement
	return d.Offset()
}
