package index_test

import (
	"pmwcas/internal/bwtree"
	"pmwcas/internal/hashtable"
	"pmwcas/internal/index"
	"pmwcas/internal/skiplist"
)

// Every index handle satisfies the contract natively: no adapter type
// stands between a consumer and an index.
var (
	_ index.Handle = (*skiplist.Handle)(nil)
	_ index.Handle = (*skiplist.CASHandle)(nil)
	_ index.Handle = (*bwtree.Handle)(nil)
	_ index.Handle = (*hashtable.Handle)(nil)

	_ index.ReverseScanner = (*skiplist.Handle)(nil)
	_ index.ReverseScanner = (*skiplist.CASHandle)(nil)
)
