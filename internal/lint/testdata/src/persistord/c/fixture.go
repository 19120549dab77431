// Downstream fixture for the persistord analyzer: the traversal value
// arrives two package hops away, through a struct field, and is still
// caught when published raw.
package c

import (
	"fixtures/persistord/a"
	"fixtures/persistord/b"

	"pmwcas/internal/alloc"
	"pmwcas/internal/nvram"
)

// BadTwoHop: a.Next -> b.Forward -> here; the field read off the tainted
// Cursor still carries PersistState.
func BadTwoHop(l *a.List, off, dst nvram.Offset) {
	cur := b.Forward(l, off)
	l.Dev.Store(dst, cur.Val) // want `publishing the possibly-unpersisted value returned by .*Forward .fact PersistState.`
}

// GoodTwoHopStaged: the same flow, cleared by staged initialisation.
func GoodTwoHopStaged(l *a.List, off, dst nvram.Offset) {
	cur := b.Forward(l, off)
	l.Dev.Store(dst, cur.Val)
	l.Dev.Flush(dst)
	l.Dev.Fence()
}

// GoodTwoHopHandedOff: the same flow fills a reserved block, cleared by
// the Activate that takes the block (it flushes the block, then fences).
func GoodTwoHopHandedOff(l *a.List, ah *alloc.Handle, off, dst nvram.Offset) {
	cur := b.Forward(l, off)
	blk, err := ah.Reserve(64)
	if err != nil {
		return
	}
	l.Dev.Store(blk, cur.Val)
	ah.Activate(blk, dst)
}

// BadTwoHopNoHandoff: filled but never handed over.
func BadTwoHopNoHandoff(l *a.List, ah *alloc.Handle, off nvram.Offset) nvram.Offset {
	cur := b.Forward(l, off)
	blk, err := ah.Reserve(64)
	if err != nil {
		return 0
	}
	l.Dev.Store(blk, cur.Val) // want `publishing the possibly-unpersisted value returned by .*Forward .fact PersistState.`
	return blk
}

// GoodSuppressed: a deliberate, reviewed exception is silenced the same
// way as every other checker in the suite.
func GoodSuppressed(l *a.List, off, dst nvram.Offset) {
	cur := b.Forward(l, off)
	//lint:allow persistord — recovery re-derives this word before any reader trusts it
	l.Dev.Store(dst, cur.Val)
}
