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

import "errors"

var (
	// ErrNotFound is returned by Get, Update and Delete for an absent key.
	ErrNotFound = errors.New("index: key not found")
	// ErrKeyExists is returned by Insert for a present key.
	ErrKeyExists = errors.New("index: key exists")
	// ErrUnordered is returned by Scan on an index with no key order to
	// scan in (the hash table; handles routed across hash-placed shards).
	ErrUnordered = errors.New("index: range scans unsupported (index is unordered)")
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
	// false. Unordered indexes report ErrUnordered.
	Scan(from, to uint64, fn func(Entry) bool) error
}

// ReverseScanner is the optional capability of handles that scan in
// descending order (the doubly-linked skip lists; experiment E8).
type ReverseScanner interface {
	ScanReverse(from, to uint64, fn func(Entry) bool) error
}
