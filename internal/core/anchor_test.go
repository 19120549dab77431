package core

import (
	"testing"

	"pmwcas/internal/nvram"
)

// TestOpenAnchorsCreatesOnceAndReleases: the first open runs create and
// adopts what it published, a second open adopts without creating, and
// neither leaves a registered guard or cached descriptors behind.
func TestOpenAnchorsCreatesOnceAndReleases(t *testing.T) {
	e := newEnv(t, Persistent, false)
	anchors := []nvram.Offset{e.data.Base, e.data.Base + nvram.WordSize}
	guards := e.pool.Epochs().Guards()
	creates := 0
	create := func(h *Handle) error {
		creates++
		d, err := h.AllocateDescriptor(0)
		if err != nil {
			return err
		}
		d.AddWord(anchors[0], 0, 7)
		d.AddWord(anchors[1], 0, 9)
		_, err = d.Execute()
		return err
	}
	for i := 0; i < 2; i++ {
		vals, err := e.pool.OpenAnchors(anchors, create)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if vals[0] != 7 || vals[1] != 9 {
			t.Fatalf("open %d adopted %v, want [7 9]", i, vals)
		}
	}
	if creates != 1 {
		t.Fatalf("create ran %d times, want 1", creates)
	}
	if g := e.pool.Epochs().Guards(); g != guards {
		t.Fatalf("opens left %d guards registered, want %d", g, guards)
	}
	e.pool.Epochs().Drain()
	if free := e.pool.FreeDescriptors(); free != testDescs {
		t.Fatalf("%d descriptors free after the opens, want %d", free, testDescs)
	}

	got, err := CheckAnchors(e.dev, anchors...)
	if err != nil || got[0] != 7 || got[1] != 9 {
		t.Fatalf("CheckAnchors = %v, %v; want [7 9]", got, err)
	}
}

// TestOpenAnchorsRefusesTornImage: a create that leaves an anchor unset
// (as only a corrupt image can) is reported, not retried forever, and
// CheckAnchors reports the same image as torn.
func TestOpenAnchorsRefusesTornImage(t *testing.T) {
	e := newEnv(t, Persistent, false)
	anchors := []nvram.Offset{e.data.Base, e.data.Base + nvram.WordSize}
	if got, err := CheckAnchors(e.dev, anchors...); got != nil || err != nil {
		t.Fatalf("CheckAnchors on zero anchors = %v, %v; want absent", got, err)
	}
	e.dev.Store(anchors[0], 5)
	e.dev.Flush(anchors[0])
	creates := 0
	if _, err := e.pool.OpenAnchors(anchors, func(*Handle) error { creates++; return nil }); err == nil {
		t.Fatal("OpenAnchors adopted a half-set image")
	}
	if creates != 1 {
		t.Fatalf("create ran %d times, want 1", creates)
	}
	if _, err := CheckAnchors(e.dev, anchors...); err == nil {
		t.Fatal("CheckAnchors passed a half-set image")
	}
	e.dev.Store(anchors[1], 3|MwCASFlag)
	if _, err := CheckAnchors(e.dev, anchors...); err == nil {
		t.Fatal("CheckAnchors passed an anchor holding a descriptor pointer")
	}
}

// TestAllocIntoZeroesItsExtent reuses a block whose earlier occupant left
// it non-zero and durable: AllocInto must publish it zeroed in both
// images, since Reserve stores nothing into the blocks it hands out.
func TestAllocIntoZeroesItsExtent(t *testing.T) {
	e := newEnv(t, Persistent, true)
	old, err := e.alloc.NewHandle().Alloc(64, e.data.Base+nvram.WordSize)
	if err != nil {
		t.Fatal(err)
	}
	for off := old; off < old+64; off += nvram.WordSize {
		e.dev.Store(off, 0x5a5a)
	}
	e.dev.FlushAll()
	if err := e.alloc.Free(old); err != nil {
		t.Fatal(err)
	}
	b, err := e.pool.AllocInto(64, e.data.Base)
	if err != nil {
		t.Fatal(err)
	}
	if b != old {
		t.Fatalf("AllocInto returned %#x, want the freed block %#x back", b, old)
	}
	if got := e.dev.PersistedLoad(e.data.Base) &^ DirtyFlag; got != b {
		t.Fatalf("target persisted as %#x, want %#x", got, b)
	}
	for off := b; off < b+64; off += nvram.WordSize {
		if v, p := e.dev.Load(off), e.dev.PersistedLoad(off); v != 0 || p != 0 {
			t.Fatalf("word %#x = %#x (persisted %#x), want 0", off, v, p)
		}
	}
}
