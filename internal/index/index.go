// Package index declares the word-index contract once: the sentinel
// errors, the entry type and the per-goroutine handle shape that the skip
// list, the Bw-tree and the hash table all share. The index packages
// alias these values and this type, so their handles satisfy Handle
// natively and every consumer (harness, server, crash sweep, benchmarks)
// drives any index through the one interface — no adapter per index.
//
// The sentinels are returned bare (compare with ==, never wrapped): a
// rejection on a point op must not allocate (DESIGN.md §6.3).
package index

import (
	"errors"

	"pmwcas/internal/epoch"
)

var (
	// ErrNotFound is returned by Get, Update and Delete for an absent key.
	ErrNotFound = errors.New("index: key not found")
	// ErrKeyExists is returned by Insert for a present key.
	ErrKeyExists = errors.New("index: key exists")
	// ErrUnordered is returned by Scan on an index with no key order to
	// scan in (the hash table; handles routed across hash-placed shards).
	ErrUnordered = errors.New("index: range scans unsupported (index is unordered)")
	// ErrRaced is returned by PutOwned when the PMwCAS that would have
	// published the value lost its race: the value's block is freed, and
	// the caller reserves and fills a new one to try again.
	ErrRaced = errors.New("index: owned put lost its race")
)

// Entry is one key/value pair yielded by a scan.
type Entry struct {
	Key, Value uint64
}

// Handle is one goroutine's context on a word index. Key-exists and
// not-found are expected outcomes under contention, not failures.
type Handle interface {
	Insert(key, value uint64) error
	Get(key uint64) (uint64, error)
	Update(key, value uint64) error
	Delete(key uint64) error
	// Scan visits keys in [from, to] in ascending order until fn returns
	// false. Unordered indexes report ErrUnordered. fn runs under the
	// scan's epoch guard.
	Scan(from, to uint64, fn func(Entry) bool) error
}

// Owner is the capability of persistent index handles whose values may
// be allocator blocks the index owns (paper §5.2 ownership transfer): the
// PMwCAS that installs a value takes its block from the descriptor, and
// the one that replaces or removes a value also frees the block it
// displaced, through the recycle policies, so both are crash-atomic with
// the index change and the free waits out the epoch. A value layer
// (blobkv) keeps its out-of-line records this way.
type Owner interface {
	Handle
	// PutOwned inserts value under key, or replaces whatever value key
	// holds and frees that block, in one descent per attempt. value is a
	// block reserved from the index's allocator (alloc.Handle.Reserve)
	// and filled; it rides the publishing PMwCAS as a descriptor entry
	// (core.Descriptor.ReserveEntry), which activates it. PutOwned always
	// consumes it: published, freed when that PMwCAS fails (ErrRaced), or
	// returned to the allocator on any other error.
	PutOwned(key, value uint64) error
	// DeleteOwned removes key, frees its value's block and returns the
	// value it removed. The caller must not free it again.
	DeleteOwned(key uint64) (uint64, error)
	// Guard is the handle's epoch guard. Hold it across "look up a value,
	// then read its block", or a concurrent update may recycle the block
	// mid-read.
	Guard() *epoch.Guard
}

// ReverseScanner is the optional capability of handles that scan in
// descending order (the doubly-linked skip lists; experiment E8).
type ReverseScanner interface {
	ScanReverse(from, to uint64, fn func(Entry) bool) error
}
