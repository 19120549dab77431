//go:build psan

package nvram

import (
	"strings"
	"testing"
)

// testMask plays the role of core.DirtyFlag without importing core (which
// would create an import cycle): bit 63, exactly what NewPool arms.
const testMask = uint64(1) << 63

func newArmed(t *testing.T, size uint64) *Device {
	t.Helper()
	d := New(size)
	d.SetShadowMask(testMask)
	return d
}

// mustPanicPsan runs fn and asserts it panics with a psan violation whose
// message names both offsets.
func mustPanicPsan(t *testing.T, fn func(), wantSubstrs ...string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected psan panic, got none")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("psan panic is %T, want string", r)
		}
		if !strings.HasPrefix(msg, "psan:") {
			t.Fatalf("panic %q does not start with psan:", msg)
		}
		for _, sub := range wantSubstrs {
			if !strings.Contains(msg, sub) {
				t.Fatalf("panic %q missing %q", msg, sub)
			}
		}
	}()
	fn()
}

// TestShadowCommitCatchesUnflushedDependency is the sanitizer's core
// positive: a value read off a never-flushed line and re-stored elsewhere
// must panic at commit, naming both offsets and carrying the read's stack.
func TestShadowCommitCatchesUnflushedDependency(t *testing.T) {
	d := newArmed(t, 4*LineBytes)
	const origin = Offset(0)
	const dest = Offset(2 * LineBytes)

	d.Store(origin, 0xabc|testMask) // dirty, never flushed
	v := d.Load(origin)             // dirty read recorded
	d.Store(dest, v&^testMask)      // derived store
	mustPanicPsan(t, d.ShadowCommit,
		"stored at offset 0x80", "dirty read of offset 0x0", "shadowLoad")
}

// TestShadowCommitPassesWhenOriginFlushed: flushing the origin line before
// the commit satisfies the dependency regardless of order of the store.
func TestShadowCommitPassesWhenOriginFlushed(t *testing.T) {
	d := newArmed(t, 4*LineBytes)
	d.Store(0, 0xabc|testMask)
	v := d.Load(0)
	d.Store(2*LineBytes, v&^testMask)
	d.Flush(0) // origin line persists: dependency satisfied
	d.Fence()
	d.ShadowCommit() // must not panic
}

// TestShadowSmallValueHasNoIdentity pins a false positive: a descriptor
// status (1–3) read off a dirty line, then a store of the same small
// number somewhere else (a count, another status), is no dependency, and
// the commit must pass. Zero alone had no identity, so this panicked.
func TestShadowSmallValueHasNoIdentity(t *testing.T) {
	d := newArmed(t, 4*LineBytes)
	for v := uint64(1); v < identityFloor; v++ {
		d.Store(0, v|testMask) // a status on a dirty, never flushed line
		_ = d.Load(0)
		d.Store(2*LineBytes, v)
	}
	if r, dp := d.ShadowPending(); r != 0 || dp != 0 {
		t.Fatalf("small values left %d reads and %d deps pending", r, dp)
	}
	d.ShadowCommit()
}

// TestShadowNavigationOnlyReadIsLegal: a dirty read that is never stored
// anywhere (a key compared, a link followed) commits cleanly.
func TestShadowNavigationOnlyReadIsLegal(t *testing.T) {
	d := newArmed(t, 4*LineBytes)
	d.Store(0, 0xabc|testMask)
	if v := d.Load(0); v&^testMask != 0xabc { // navigate only
		t.Fatalf("Load = %#x", v)
	}
	d.Store(2*LineBytes, 0x999) // unrelated value: no dependency
	d.ShadowCommit()
}

// TestShadowDropClearsPendingRecords: an aborted operation must not leak
// its records into the next commit.
func TestShadowDropClearsPendingRecords(t *testing.T) {
	d := newArmed(t, 4*LineBytes)
	d.Store(0, 0xabc|testMask)
	v := d.Load(0)
	d.Store(2*LineBytes, v&^testMask)
	d.ShadowDrop()
	if r, dp := d.ShadowPending(); r != 0 || dp != 0 {
		t.Fatalf("ShadowPending after drop = (%d, %d), want (0, 0)", r, dp)
	}
	d.ShadowCommit() // must not panic
}

// TestShadowCrashClearsPendingRecords: an in-place Crash destroys volatile
// state, including records of an operation unwound mid-flight.
func TestShadowCrashClearsPendingRecords(t *testing.T) {
	d := newArmed(t, 4*LineBytes)
	d.Store(0, 0xabc|testMask)
	v := d.Load(0)
	d.Store(2*LineBytes, v&^testMask)
	d.Crash()
	if r, dp := d.ShadowPending(); r != 0 || dp != 0 {
		t.Fatalf("ShadowPending after crash = (%d, %d), want (0, 0)", r, dp)
	}
	d.ShadowCommit()
}

// TestShadowUnarmedRecordsNothing: without a mask (volatile pools, bare
// devices) the sanitizer must stay silent even for textbook violations.
func TestShadowUnarmedRecordsNothing(t *testing.T) {
	d := New(4 * LineBytes)
	d.Store(0, 0xabc)
	v := d.Load(0)
	d.Store(2*LineBytes, v)
	if r, dp := d.ShadowPending(); r != 0 || dp != 0 {
		t.Fatalf("unarmed device recorded (%d, %d)", r, dp)
	}
	d.ShadowCommit()
}

// TestShadowStateSurvivesCloneCrashed pins the crashsweep contract: a
// crashed clone keeps the parent's per-line persist epochs and mask, so
// post-crash commits are still checked against the true flush history —
// while the parent's in-flight per-goroutine records do not leak into it.
func TestShadowStateSurvivesCloneCrashed(t *testing.T) {
	d := newArmed(t, 4*LineBytes)
	d.Store(0, 1|testMask)
	d.Flush(0)
	d.Store(LineBytes, 2|testMask)
	d.Flush(LineBytes)
	d.Flush(LineBytes) // epochs count flushes, not transitions: line 1 ends at 2
	d.Store(2*LineBytes, 3|testMask)
	v := d.Load(2 * LineBytes) // pending dirty read in the parent
	_ = v

	c := d.CloneCrashed()
	for line := uint64(0); line < 2; line++ {
		if got, want := c.ShadowLineEpoch(line), d.ShadowLineEpoch(line); got != want {
			t.Fatalf("clone line %d epoch = %d, want %d", line, got, want)
		}
	}
	if e := c.ShadowLineEpoch(0); e == 0 {
		t.Fatalf("clone lost epoch of flushed line 0")
	}
	if r, dp := c.ShadowPending(); r != 0 || dp != 0 {
		t.Fatalf("clone inherited in-flight records (%d, %d)", r, dp)
	}
	// The clone is still armed: a fresh violation on it is caught.
	c.Store(3*LineBytes, 0xdef|testMask)
	cv := c.Load(3 * LineBytes)
	c.Store(0, cv&^testMask)
	mustPanicPsan(t, c.ShadowCommit, "dirty read of offset 0xc0")
}

// TestShadowEpochAdvancesOnEviction: opportunistic eviction is a real
// flush and must satisfy dependencies exactly like an explicit one.
func TestShadowEpochAdvancesOnEviction(t *testing.T) {
	d := New(2*LineBytes, WithEviction(1), WithEvictionSeed(7))
	d.SetShadowMask(testMask)
	before := d.ShadowLineEpoch(0)
	for i := 0; i < 64; i++ {
		d.Store(0, uint64(i+1)|testMask)
	}
	if d.ShadowLineEpoch(0) == before && d.ShadowLineEpoch(1) == before {
		t.Fatalf("no line epoch advanced despite eviction rate 1")
	}
}
