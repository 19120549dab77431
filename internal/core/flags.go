// Package core implements PMwCAS — the persistent, lock-free multi-word
// compare-and-swap that is the paper's primary contribution — together
// with the persistent single-word CAS it builds on (§3), the NVRAM
// descriptor pool with single-scan recovery (§4.4, §5.1), and the
// epoch-integrated memory recycling policies (§5.2).
//
// The same implementation runs in two modes. In Persistent mode every
// rule of the paper's dirty-bit protocol is enforced: no thread ever acts
// on a value that is not durable, and descriptors are persisted at the
// points recovery depends on. In Volatile mode the identical code path
// runs on a volatile device (nvram.WithVolatile), whose flushes and
// fences cost nothing and where no dirty bit is ever set, yielding
// Harris-style volatile MwCAS — the paper's headline engineering claim
// is precisely that one implementation serves both DRAM and NVRAM.
package core

import "pmwcas/internal/nvram"

// Flag bits stolen from the vacant high bits of a 64-bit word (§3, §4.2).
// x86-64 canonical addressing leaves the top 16 bits unused; the paper
// uses three of them. Applications may store any value whose top three
// bits are clear.
const (
	// DirtyFlag marks a word whose contents may not yet be durable. Any
	// thread observing it must flush the line and clear the bit before
	// acting on the value (flush-on-read, §3).
	DirtyFlag uint64 = 1 << 63
	// MwCASFlag marks a word holding a pointer (arena offset) to a PMwCAS
	// descriptor whose operation is in progress.
	MwCASFlag uint64 = 1 << 62
	// RDCSSFlag marks a word holding a pointer to an individual word
	// descriptor, installed during the double-compare single-swap step.
	RDCSSFlag uint64 = 1 << 61

	// AddressMask extracts the payload (value or arena offset).
	AddressMask uint64 = (1 << 61) - 1
	// FlagsMask selects all reserved bits.
	FlagsMask uint64 = DirtyFlag | MwCASFlag | RDCSSFlag
)

// Descriptor status values (§4.1). Free guards recovery against replaying
// a descriptor that was mid-initialization when the system crashed (§5.1).
const (
	StatusFree      uint64 = 0
	StatusUndecided uint64 = 1
	StatusSucceeded uint64 = 2
	StatusFailed    uint64 = 3
)

// statusName returns a human-readable status, for errors and dumps.
func statusName(s uint64) string {
	switch s &^ DirtyFlag {
	case StatusFree:
		return "Free"
	case StatusUndecided:
		return "Undecided"
	case StatusSucceeded:
		return "Succeeded"
	case StatusFailed:
		return "Failed"
	}
	return "corrupt"
}

// Policy tells the recycling machinery what to do with the memory blocks
// referenced by a word's old and new values once the operation concludes
// and no thread can still hold a reference (paper Table 1).
type Policy uint8

const (
	// PolicyNone performs no recycling: the word holds plain values.
	PolicyNone Policy = iota
	// PolicyFreeOne frees the memory behind the old value if the PMwCAS
	// succeeded, or behind the new value if it failed. Example: installing
	// a consolidated page in the Bw-tree.
	PolicyFreeOne
	// PolicyFreeNewOnFailure frees the new value's memory only if the
	// PMwCAS failed. Example: inserting a node into a linked list.
	PolicyFreeNewOnFailure
	// PolicyFreeOldOnSuccess frees the old value's memory only if the
	// PMwCAS succeeded. Example: deleting a node from a linked list.
	PolicyFreeOldOnSuccess
)

func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "None"
	case PolicyFreeOne:
		return "FreeOne"
	case PolicyFreeNewOnFailure:
		return "FreeNewOnFailure"
	case PolicyFreeOldOnSuccess:
		return "FreeOldOnSuccess"
	}
	return "invalid"
}

// IsClean reports whether v carries no reserved flag bits, i.e., is a
// plain application value.
func IsClean(v uint64) bool { return v&FlagsMask == 0 }

// offsetOK reports whether off can be stored in a flagged word.
func offsetOK(off nvram.Offset) bool { return off&^AddressMask == 0 }
