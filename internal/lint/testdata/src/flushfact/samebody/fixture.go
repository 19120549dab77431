// Same-body fixture for the flushfact analyzer: the raw Device.Load and
// the unmasked comparison share one function. b.word is a managed
// fingerprint (passed to core.PCAS), so a raw Device.Load of it yields a
// value that may carry reserved flag bits.
package samebody

import (
	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

type box struct {
	dev  *nvram.Device
	word nvram.Offset
}

func (b *box) publish(old, new uint64) bool {
	return core.PCAS(b.dev, b.word, old, new)
}

func (b *box) badDirect(expect uint64) bool {
	return b.dev.Load(b.word) == expect // want `comparison \(==\) of the unflushed PMwCAS word returned by a raw Device\.Load in this function`
}

func (b *box) badDirectNotEqual(expect uint64) bool {
	return b.dev.Load(b.word) != expect // want `comparison \(!=\) of the unflushed PMwCAS word returned by a raw Device\.Load in this function`
}

func (b *box) badViaVar(expect uint64) bool {
	v := b.dev.Load(b.word)
	return v != expect // want `comparison \(!=\) of the unflushed PMwCAS word returned by a raw Device\.Load in this function`
}

func (b *box) badSwitch() int {
	v := b.dev.Load(b.word)
	switch v { // want `switch on the unflushed PMwCAS word returned by a raw Device\.Load in this function`
	case 1:
		return 1
	}
	return 0
}

func (b *box) badRestore() bool {
	v := b.dev.Load(b.word)
	return core.PCAS(b.dev, b.word, v, v+1) // want `re-storing the unflushed PMwCAS word returned by a raw Device\.Load in this function`
}

func (b *box) goodMasked(expect uint64) bool {
	v := b.dev.Load(b.word)
	v = v &^ core.FlagsMask
	return v == expect
}

// goodFlagProbe inspects the flag bits themselves, which is deliberate
// flag reasoning, not a payload comparison.
func (b *box) goodFlagProbe() bool {
	v := b.dev.Load(b.word)
	return v&core.DirtyFlag == core.DirtyFlag
}

func (b *box) goodPCASRead(expect uint64) bool {
	return core.PCASRead(b.dev, b.word) == expect
}

func (b *box) goodSuppressed(expect uint64) bool {
	//lint:allow flushfact — this word is written only by recovery, which never leaves flags set
	return b.dev.Load(b.word) == expect
}

// casResult mirrors the search result of the volatile single-word-CAS
// skip list: one field carries a raw-loaded word, the other does not.
type casResult struct {
	link uint64
	hops int
}

// search returns a raw-loaded word inside a struct. flushfact follows
// bare values only, so the struct result carries no ReturnsUnflushed.
func (b *box) search() (r casResult) {
	r.link = b.dev.Load(b.word)
	r.hops = 1
	return r
}

// goodSiblingField compares the struct's plain field. Taint that flowed
// through struct members would reach it through its sibling.
func (b *box) goodSiblingField() bool {
	r := b.search()
	return r.hops == 1
}
