package core

import "pmwcas/internal/nvram"

// This file implements the persistent single-word CAS of paper §3
// (Algorithm 1). It is self-contained — no descriptors — and exists both
// as the conceptual stepping stone the paper presents it as and as a
// usable primitive for single-word state (e.g., flags and counters that
// live outside any index).
//
// Protocol: a store always sets the dirty bit; any thread that reads a
// word with the dirty bit set flushes the line and clears the bit before
// using the value. A word's clean value is therefore guaranteed durable,
// which closes the write-after-read window: no thread can act on (and
// persist decisions derived from) a value that a crash could still undo.
//
// Words managed with PCAS must not be mixed with PMwCAS-managed words:
// the two protocols interpret the flag bits differently.
//
// On a volatile device (nvram.WithVolatile) there is nothing to make
// durable: PCAS and PCASFlush are one device CAS, PCASRead one load, and
// no dirty bit is ever set.

// Persist flushes the line holding addr and clears the word's dirty bit
// (Algorithm 1, persist). value must be the flagged value just read. The
// clear uses CAS because concurrent threads may race to set or change the
// word; losing that race is fine — the winner's protocol covers the word.
func Persist(dev *nvram.Device, addr nvram.Offset, value uint64) {
	if dev.Volatile() {
		return
	}
	dev.Flush(addr)
	dev.CAS(addr, value, value&^DirtyFlag)
}

// PCASRead reads a PCAS-managed word, flushing it first if its dirty bit
// is set (Algorithm 1, pcas_read). The returned value is clean and
// guaranteed durable.
func PCASRead(dev *nvram.Device, addr nvram.Offset) uint64 {
	word := dev.Load(addr)
	if word&DirtyFlag != 0 {
		Persist(dev, addr, word)
	}
	return word &^ DirtyFlag
}

// PCAS atomically replaces oldValue with newValue at addr with persistence
// guarantees (Algorithm 1, persistent_cas). oldValue and newValue must be
// clean 61-bit values. It reports whether the swap installed newValue.
//
// On success the new value carries the dirty bit; it becomes durable when
// the next reader (or this caller via PCASRead) persists it — write-back
// caching is preserved, exactly one flush per modified word.
func PCAS(dev *nvram.Device, addr nvram.Offset, oldValue, newValue uint64) bool {
	if !IsClean(oldValue) || !IsClean(newValue) {
		panic("core: PCAS operands must not carry flag bits")
	}
	if dev.Volatile() {
		return dev.CAS(addr, oldValue, newValue)
	}
	// Make sure the current value is durable before replacing it.
	PCASRead(dev, addr)
	return dev.CAS(addr, oldValue, newValue|DirtyFlag)
}

// PCASFlush is a convenience for callers that need the new value durable
// before returning (e.g., before acknowledging a commit): it performs a
// PCAS and, on success, immediately persists the stored value.
func PCASFlush(dev *nvram.Device, addr nvram.Offset, oldValue, newValue uint64) bool {
	if !PCAS(dev, addr, oldValue, newValue) {
		return false
	}
	Persist(dev, addr, newValue|DirtyFlag)
	// The value is durable: commit boundary for the psan sanitizer.
	dev.ShadowCommit()
	return true
}
