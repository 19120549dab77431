// Package pmwcas is a Go implementation of the system described in
// "Easy Lock-Free Indexing in Non-Volatile Memory" (Wang, Levandoski,
// Larson — ICDE 2018): a persistent multi-word compare-and-swap
// (PMwCAS) for NVRAM, together with the two lock-free range indexes the
// paper builds on it — a doubly-linked skip list and the Bw-tree — and
// every substrate they need (a simulated NVRAM device, epoch-based
// reclamation, and a crash-safe persistent allocator).
//
// # Quick start
//
//	store, err := pmwcas.Create(pmwcas.Config{})    // 64 MiB simulated NVRAM
//	h := store.PMwCASHandle()
//	d, _ := h.AllocateDescriptor(0)
//	d.AddWord(a1, old1, new1)
//	d.AddWord(a2, old2, new2)
//	ok, _ := d.Execute()                            // atomic + durable
//
// Indexes:
//
//	list, _ := store.SkipList()
//	lh := list.NewHandle(1)
//	lh.Insert(42, 420)
//
//	tree, _ := store.BwTree(pmwcas.BwTreeOptions{})
//	th := tree.NewHandle()
//	th.Insert(42, 420)
//
// Every index handle satisfies IndexHandle, and OpenIndex opens one by
// name ("skiplist", "bwtree", "hash"), routing across shards:
//
//	newHandle, _ := store.OpenIndex("hash", pmwcas.IndexOptions{})
//	newHandle(1).Insert(42, 420)
//
// Crash and recover (or persist to a file with Checkpoint/OpenFile):
//
//	store.Crash()          // power failure: unflushed state is gone
//	store.Recover()        // PMwCAS recovery over the allocator's
//	                       // bitmaps; indexes need no recovery code
//	                       // of their own
//
// The same implementation runs volatile (Mode: Volatile, a volatile
// device) with identical APIs and free flushes — the paper's central
// engineering claim.
package pmwcas

import (
	"pmwcas/internal/alloc"
	"pmwcas/internal/blobkv"
	"pmwcas/internal/bwtree"
	"pmwcas/internal/core"
	"pmwcas/internal/epoch"
	"pmwcas/internal/hashtable"
	"pmwcas/internal/index"
	"pmwcas/internal/keycodec"
	"pmwcas/internal/nvram"
	"pmwcas/internal/pqueue"
	"pmwcas/internal/skiplist"
)

// Persistence mode of a store.
type Mode = core.Mode

// Modes.
const (
	// Persistent enables the full dirty-bit protocol and recovery.
	Persistent = core.Persistent
	// Volatile runs on a volatile device, where flushes and fences cost
	// nothing: the identical code becomes a volatile MwCAS (DRAM
	// semantics).
	Volatile = core.Volatile
)

// Policy selects memory recycling behaviour for a PMwCAS word (paper
// Table 1).
type Policy = core.Policy

// Recycling policies.
const (
	PolicyNone             = core.PolicyNone
	PolicyFreeOne          = core.PolicyFreeOne
	PolicyFreeNewOnFailure = core.PolicyFreeNewOnFailure
	PolicyFreeOldOnSuccess = core.PolicyFreeOldOnSuccess
)

// Offset addresses a word on the store's NVRAM device.
type Offset = nvram.Offset

// Low-level PMwCAS API (paper §2.2).
type (
	// Handle is a per-goroutine PMwCAS context.
	Handle = core.Handle
	// Descriptor describes one in-flight PMwCAS operation.
	Descriptor = core.Descriptor
	// DescriptorView is the read-only view passed to finalize callbacks.
	DescriptorView = core.DescriptorView
	// FinalizeFunc is a registered finalize callback (§5.2).
	FinalizeFunc = core.FinalizeFunc
	// PoolStats counts PMwCAS pool activity.
	PoolStats = core.Stats
	// RecoveryStats summarizes a recovery pass.
	RecoveryStats = core.RecoveryStats
)

// Device is the simulated NVRAM device.
type Device = nvram.Device

// DeviceStats counts device operations (loads, stores, flushes, ...).
type DeviceStats = nvram.Stats

// SizeClass configures one allocator size class.
type SizeClass = alloc.Class

// SkipList is the paper's doubly-linked lock-free skip list (§6.1).
type SkipList = skiplist.List

// SkipListHandle is a per-goroutine skip list context.
type SkipListHandle = skiplist.Handle

// IndexHandle is the word-index contract: the per-goroutine surface
// SkipListHandle, BwTreeHandle and HashTableHandle all satisfy, and
// what Store.OpenIndex mints.
type IndexHandle = index.Handle

// IndexEntry is one key/value pair yielded by an index scan.
type IndexEntry = index.Entry

// SkipListEntry, BwTreeEntry and HashEntry are IndexEntry's per-index
// names.
type (
	SkipListEntry = IndexEntry
	BwTreeEntry   = IndexEntry
	HashEntry     = IndexEntry
)

// Queue is a persistent lock-free FIFO queue — PMwCAS beyond indexing.
type Queue = pqueue.Queue

// QueueHandle is a per-goroutine queue context.
type QueueHandle = pqueue.Handle

// ErrQueueEmpty is returned by Dequeue on an empty queue.
var ErrQueueEmpty = pqueue.ErrEmpty

// BlobKV is the byte-string KV layer over any persistent index: short
// string keys, arbitrary-length values stored as out-of-line records.
type BlobKV = blobkv.Store

// BlobKVHandle is a per-goroutine BlobKV context.
type BlobKVHandle = blobkv.Handle

// BwTree is the paper's lock-free B+-tree (§6.2).
type BwTree = bwtree.Tree

// BwTreeHandle is a per-goroutine Bw-tree context.
type BwTreeHandle = bwtree.Handle

// SMOMode selects the Bw-tree structure-modification protocol.
type SMOMode = bwtree.SMOMode

// Bw-tree SMO protocols.
const (
	// SMOPMwCAS installs each split/merge as one PMwCAS.
	SMOPMwCAS = bwtree.SMOPMwCAS
	// SMOSingleCAS is the classic multi-step protocol with help-along
	// (volatile only).
	SMOSingleCAS = bwtree.SMOSingleCAS
)

// HashTable is the persistent lock-free extendible hash table — the
// store's point-lookup index, unordered by construction. Its values lie
// below 2^60, the skip list's domain (bit 60 marks the values a bucket
// split moves); the Bw-tree keeps values below 2^61.
type HashTable = hashtable.Table

// HashTableHandle is a per-goroutine hash table context.
type HashTableHandle = hashtable.Handle

// EpochManager is the epoch-based reclamation manager shared by the
// PMwCAS pool and the indexes (§5.1).
type EpochManager = epoch.Manager

// EpochStats counts epoch clock advances and deferred/freed garbage.
type EpochStats = epoch.Stats

// Sentinel errors. Every index (and BlobKV) reports an absent or
// already-present key with the same bare value, so callers compare
// against one sentinel whatever index they hold.
var (
	ErrNotFound  = index.ErrNotFound
	ErrKeyExists = index.ErrKeyExists
	// ErrUnordered is returned by Scan on the hash table and on handles
	// routed across shards, which have no key order to scan in.
	ErrUnordered = index.ErrUnordered

	ErrBlobValueTooLarge = blobkv.ErrValueTooLarge
	ErrPoolExhausted     = core.ErrPoolExhausted
)

// The shared sentinels' per-index names.
var (
	ErrSkipListKeyExists = ErrKeyExists
	ErrSkipListNotFound  = ErrNotFound
	ErrBlobNotFound      = ErrNotFound
	ErrBwTreeKeyExists   = ErrKeyExists
	ErrBwTreeNotFound    = ErrNotFound
	ErrHashKeyExists     = ErrKeyExists
	ErrHashNotFound      = ErrNotFound
	ErrHashUnordered     = ErrUnordered
)

// MaxSkipListKey is the largest insertable skip list key.
const MaxSkipListKey = skiplist.MaxKey - 1

// MaxBwTreeKey is the largest insertable Bw-tree key.
const MaxBwTreeKey = bwtree.MaxKey - 1

// MaxHashKey is the largest insertable hash table key.
const MaxHashKey = hashtable.MaxKey - 1

// Short string keys: an order-preserving codec packing byte strings of
// up to keycodec.MaxLen (7) bytes into the indexes' integer key domain,
// so lexicographic string order equals integer key order.

// EncodeKey packs a short byte-string key order-preservingly.
func EncodeKey(s []byte) (uint64, error) { return keycodec.Encode(s) }

// EncodeKeyString is EncodeKey for strings.
func EncodeKeyString(s string) (uint64, error) { return keycodec.EncodeString(s) }

// MustEncodeKey is EncodeKeyString panicking on oversize keys — for
// literals.
func MustEncodeKey(s string) uint64 { return keycodec.MustEncode(s) }

// DecodeKey recovers the byte string behind an encoded key.
func DecodeKey(k uint64) ([]byte, error) { return keycodec.Decode(k) }

// DecodeKeyString is DecodeKey returning a string.
func DecodeKeyString(k uint64) (string, error) { return keycodec.DecodeString(k) }

// KeyPrefixRange returns the [lo, hi] key range covering every string
// with the given prefix, for prefix scans.
func KeyPrefixRange(prefix []byte) (lo, hi uint64, err error) {
	return keycodec.PrefixRange(prefix)
}

// MaxEncodedKeyLen is the longest byte-string key EncodeKey accepts.
const MaxEncodedKeyLen = keycodec.MaxLen
