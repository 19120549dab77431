//go:build !psan

package nvram

// SanitizerEnabled reports whether this binary was built with the psan
// persistency sanitizer (`-tags psan`). The allocation-budget tests use it
// to skip themselves: the sanitizer's shadow bookkeeping allocates.
const SanitizerEnabled = false

// shadowState is empty without the psan build tag; every hook below is a
// no-op the compiler erases. The exported entry points (SetShadowMask,
// ShadowCommit, ShadowDrop) exist in both build flavours so internal/core
// can call them unconditionally.
type shadowState struct{}

func (d *Device) shadowInit()                    {}
func (d *Device) shadowLoad(i uint64, v uint64)  {}
func (d *Device) shadowStore(i uint64, v uint64) {}
func (d *Device) shadowFlushLine(line uint64)    {}
func (d *Device) shadowFence()                   {}
func (d *Device) shadowCrash()                   {}
func (d *Device) shadowClone(c *Device)          {}

// SetShadowMask tells the sanitizer which value bits are volatile metadata
// (the PMwCAS dirty flag) and must be ignored when comparing a word against
// its persisted image. No-op without the psan tag.
func (d *Device) SetShadowMask(mask uint64) {}

// ShadowCommit checks, at a PMwCAS commit boundary, that no store made by
// the calling goroutine during this operation derives from a value read off
// a line that has still never been flushed. No-op without the psan tag.
func (d *Device) ShadowCommit() {}

// ShadowDrop discards the calling goroutine's pending shadow records (used
// when an operation aborts before committing). No-op without the psan tag.
func (d *Device) ShadowDrop() {}
