package core

import (
	"sync"
	"testing"

	"pmwcas/internal/nvram"
)

func TestPCASBasics(t *testing.T) {
	dev := nvram.New(4096)
	addr := nvram.Offset(64)
	dev.Store(addr, 5)
	dev.FlushAll()

	if !PCAS(dev, addr, 5, 6) {
		t.Fatal("PCAS(5->6) failed")
	}
	if PCAS(dev, addr, 5, 7) {
		t.Fatal("PCAS with stale expected succeeded")
	}
	if got := PCASRead(dev, addr); got != 6 {
		t.Fatalf("PCASRead = %d, want 6", got)
	}
}

func TestPCASSetsDirtyUntilRead(t *testing.T) {
	dev := nvram.New(4096)
	addr := nvram.Offset(64)
	dev.Store(addr, 1)
	dev.FlushAll()

	if !PCAS(dev, addr, 1, 2) {
		t.Fatal("PCAS failed")
	}
	// The raw word carries the dirty bit; the value is not yet durable.
	if raw := dev.Load(addr); raw != 2|DirtyFlag {
		t.Fatalf("raw word = %#x, want dirty 2", raw)
	}
	if got := dev.PersistedLoad(addr); got&AddressMask == 2 {
		t.Fatal("value durable before any read persisted it")
	}
	// Reading persists it and clears the bit.
	if got := PCASRead(dev, addr); got != 2 {
		t.Fatalf("PCASRead = %d", got)
	}
	if got := dev.PersistedLoad(addr) &^ DirtyFlag; got != 2 {
		t.Fatalf("persisted = %#x, want 2", got)
	}
}

// The write-after-read hazard of §3: without the dirty-bit protocol a
// reader could act on a value that a crash then undoes. With it, any
// value a reader obtains is durable.
func TestPCASReaderNeverSeesUndurableValue(t *testing.T) {
	dev := nvram.New(4096)
	addr := nvram.Offset(64)
	dev.Store(addr, 1)
	dev.FlushAll()
	PCAS(dev, addr, 1, 2)

	got := PCASRead(dev, addr)
	dev.Crash()
	if durable := dev.Load(addr) &^ DirtyFlag; durable != got {
		t.Fatalf("reader saw %d but crash reverted the word to %d", got, durable)
	}
}

func TestPCASFlush(t *testing.T) {
	dev := nvram.New(4096)
	addr := nvram.Offset(64)
	dev.Store(addr, 3)
	dev.FlushAll()
	if !PCASFlush(dev, addr, 3, 4) {
		t.Fatal("PCASFlush failed")
	}
	dev.Crash()
	if got := dev.Load(addr) &^ DirtyFlag; got != 4 {
		t.Fatalf("PCASFlush value lost in crash: %d", got)
	}
	if PCASFlush(dev, addr, 3, 5) {
		t.Fatal("stale PCASFlush succeeded")
	}
}

func TestPCASRejectsFlaggedOperands(t *testing.T) {
	dev := nvram.New(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("flagged operand accepted")
		}
	}()
	PCAS(dev, 64, DirtyFlag, 0)
}

func TestPCASConcurrentCounter(t *testing.T) {
	dev := nvram.New(4096)
	addr := nvram.Offset(64)
	dev.FlushAll()
	const goroutines = 4
	const increments = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				for {
					v := PCASRead(dev, addr)
					if PCAS(dev, addr, v, v+1) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := PCASRead(dev, addr); got != goroutines*increments {
		t.Fatalf("counter = %d, want %d", got, goroutines*increments)
	}
	// And the final read made it durable.
	dev.Crash()
	if got := dev.Load(addr) &^ DirtyFlag; got != goroutines*increments {
		t.Fatalf("durable counter = %d", got)
	}
}

func BenchmarkPCAS(b *testing.B) {
	dev := nvram.New(4096)
	addr := nvram.Offset(64)
	dev.FlushAll()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := PCASRead(dev, addr)
		PCAS(dev, addr, v, v+1)
	}
}

// TestPCASOnVolatileDevice: on a volatile device there is nothing to make
// durable, so PCAS and PCASFlush are one device CAS, PCASRead is one
// load, Persist is nothing, and no word is ever left dirty.
func TestPCASOnVolatileDevice(t *testing.T) {
	dev := nvram.New(4096, nvram.WithVolatile())
	addr := nvram.Offset(64)
	dev.Store(addr, 1)
	for _, step := range []struct {
		name string
		op   func() bool
		cost nvram.Stats
	}{
		{"PCAS", func() bool { return PCAS(dev, addr, 1, 2) }, nvram.Stats{CASes: 1}},
		{"PCASRead", func() bool { return PCASRead(dev, addr) == 2 }, nvram.Stats{Loads: 1}},
		{"PCASFlush", func() bool { return PCASFlush(dev, addr, 2, 3) }, nvram.Stats{CASes: 1}},
		{"Persist", func() bool { Persist(dev, addr, 3|DirtyFlag); return true }, nvram.Stats{}},
	} {
		dev.ResetStats()
		if !step.op() {
			t.Fatalf("%s failed", step.name)
		}
		if got := dev.Stats(); got != step.cost {
			t.Fatalf("%s cost %+v, want %+v", step.name, got, step.cost)
		}
		if raw := dev.Load(addr); raw&DirtyFlag != 0 {
			t.Fatalf("%s left the word dirty: %#x", step.name, raw)
		}
	}
}
