package nvram

import "fmt"

// A Region is a contiguous, cache-line-aligned slice of the device arena.
// Higher layers carve the device into regions at startup — a descriptor
// pool, allocator metadata, and the data heap — at locations that are
// deterministic across restarts, which is what lets recovery find its
// structures again (paper §4.4: "a pool of descriptors within the NVRAM
// address space at a location predefined by the application").
type Region struct {
	Base Offset // first byte, line-aligned
	Len  uint64 // length in bytes, multiple of LineBytes
}

// End returns the offset one past the region.
func (r Region) End() Offset { return r.Base + r.Len }

// Contains reports whether off lies inside the region.
func (r Region) Contains(off Offset) bool { return off >= r.Base && off < r.End() }

// A Layout hands out non-overlapping regions of a device front to back.
// Region boundaries depend only on the order and sizes of Carve calls, so
// a program that carves the same layout after a restart sees its old data.
type Layout struct {
	dev  *Device
	next Offset
}

// NewLayout starts a layout at the beginning of the device, skipping the
// first cache line so that offset 0 stays unused and can serve as the nil
// pointer for all higher layers.
func NewLayout(dev *Device) *Layout {
	return &Layout{dev: dev, next: LineBytes}
}

// Carve reserves the next n bytes (rounded up to whole cache lines) and
// returns the region. It panics if the device is exhausted: layout happens
// once at startup with sizes the program chose, so running out is a
// configuration bug, not a runtime condition.
func (l *Layout) Carve(n uint64) Region {
	if n == 0 {
		panic("nvram: carving empty region")
	}
	n = (n + LineBytes - 1) / LineBytes * LineBytes
	if l.next+n > l.dev.Size() {
		panic(fmt.Sprintf("nvram: layout overflow: need %d bytes at %#x, device size %#x",
			n, l.next, l.dev.Size()))
	}
	r := Region{Base: l.next, Len: n}
	l.next += n
	return r
}
