package pmwcas

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pmwcas/internal/nvram"
)

func testRecoverConfig() Config {
	return Config{Size: 1 << 19, Descriptors: 64}
}

// TestRecoverPoisonsStaleHandles: Store.Recover swaps in a freshly
// recovered allocator and descriptor pool. Handles minted before the
// crash still point at the replaced substrates; using one must panic
// loudly instead of silently corrupting the recovered state.
func TestRecoverPoisonsStaleHandles(t *testing.T) {
	st, err := Create(testRecoverConfig())
	if err != nil {
		t.Fatal(err)
	}
	list, err := st.SkipList()
	if err != nil {
		t.Fatal(err)
	}
	stale := list.NewHandle(1)
	if err := stale.Insert(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := st.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}

	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("stale pre-crash handle operated on the recovered store without panicking")
			}
			if !strings.Contains(fmt.Sprint(r), "poisoned") {
				t.Fatalf("stale handle panicked with %v, want a poisoned-substrate panic", r)
			}
		}()
		_ = stale.Insert(2, 20)
	}()

	// The poisoned stale handle never touched the recovered image: the
	// store still passes the freshly-recovered audit.
	if _, err := st.CheckInvariants(CheckOptions{}); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}

	// Re-minted handles see the recovered contents and work normally.
	list2, err := st.SkipList()
	if err != nil {
		t.Fatal(err)
	}
	fresh := list2.NewHandle(2)
	if got, err := fresh.Get(1); err != nil || got != 10 {
		t.Fatalf("Get(1) after recovery = %d, %v; want 10", got, err)
	}
	if err := fresh.Insert(2, 20); err != nil {
		t.Fatalf("Insert on re-minted handle: %v", err)
	}
}

// TestRecoverFailureKeepsStore: Store.Recover swaps nothing in until
// every shard has recovered. With one descriptor status corrupt in shard
// 1's pool, Recover fails naming shard 1, the store keeps its old
// substrates, and shard 0's pre-crash handles are not poisoned.
func TestRecoverFailureKeepsStore(t *testing.T) {
	st, err := Create(Config{Size: 1 << 20, Shards: 2, Descriptors: 64})
	if err != nil {
		t.Fatal(err)
	}
	var lists [2]*SkipListHandle
	for i := range lists {
		l, err := st.Shard(i).SkipList()
		if err != nil {
			t.Fatal(err)
		}
		lists[i] = l.NewHandle(1)
		if err := lists[i].Insert(1, 10); err != nil {
			t.Fatal(err)
		}
	}
	dev := st.Device()
	status := st.shards[1].poolRegion.Base // descriptor 0's status word
	dev.Store(status, 0xbad)
	dev.Flush(status)
	dev.Fence()
	if err := st.Crash(); err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(st.shards)
	if _, err := st.Recover(); err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("Recover with a corrupt status on shard 1: %v, want an error naming shard 1", err)
	}
	if !slices.Equal(st.shards, before) {
		t.Fatal("a failed Recover replaced the store's substrates")
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("shard 0's pre-crash handle panicked after a failed Recover: %v", r)
			}
		}()
		if got, err := lists[0].Get(1); err != nil || got != 10 {
			t.Fatalf("Get(1) on shard 0's pre-crash handle = %d, %v; want 10", got, err)
		}
	}()
}

// TestRecoverMatchesOpenDevice: in-place Store.Recover and reopening the
// crashed image via OpenDevice are documented as interchangeable. This
// compares the two durable images byte for byte after recovering the
// same crash.
func TestRecoverMatchesOpenDevice(t *testing.T) {
	cfg := testRecoverConfig()
	st, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	list, err := st.SkipList()
	if err != nil {
		t.Fatal(err)
	}
	h := list.NewHandle(1)
	for i := 1; i <= 40; i++ {
		if err := h.Insert(uint64(i), uint64(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 40; i += 3 {
		if err := h.Delete(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	q, err := st.Queue()
	if err != nil {
		t.Fatal(err)
	}
	qh := q.NewHandle()
	for i := 1; i <= 10; i++ {
		if err := qh.Enqueue(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := qh.Dequeue(); err != nil {
		t.Fatal(err)
	}
	if err := st.Crash(); err != nil {
		t.Fatal(err)
	}

	// Capture the crashed image before any recovery touches it.
	var pre bytes.Buffer
	if err := st.Device().WriteSnapshot(&pre); err != nil {
		t.Fatal(err)
	}

	// Path A: recover in place.
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	var imgA bytes.Buffer
	if err := st.Device().WriteSnapshot(&imgA); err != nil {
		t.Fatal(err)
	}

	// Path B: restore the crashed image onto a fresh device and reopen.
	dev2 := nvram.New(cfg.Size)
	if err := dev2.ReadSnapshot(bytes.NewReader(pre.Bytes())); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenDevice(dev2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var imgB bytes.Buffer
	if err := dev2.WriteSnapshot(&imgB); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(imgA.Bytes(), imgB.Bytes()) {
		a, b := imgA.Bytes(), imgB.Bytes()
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("recovered images diverge at byte %#x: in-place %#x, OpenDevice %#x", i, a[i], b[i])
			}
		}
		t.Fatalf("recovered images differ in length: %d vs %d", len(a), len(b))
	}

	// Both recovered stores pass the whole-store audit and agree on
	// contents.
	dsA, err := st.CheckInvariants(CheckOptions{})
	if err != nil {
		t.Fatalf("in-place CheckInvariants: %v", err)
	}
	dsB, err := st2.CheckInvariants(CheckOptions{})
	if err != nil {
		t.Fatalf("OpenDevice CheckInvariants: %v", err)
	}
	if len(dsA.SkipList) != len(dsB.SkipList) || len(dsA.Queue) != len(dsB.Queue) {
		t.Fatalf("recovered contents disagree: %d/%d list entries, %d/%d queued",
			len(dsA.SkipList), len(dsB.SkipList), len(dsA.Queue), len(dsB.Queue))
	}
}
