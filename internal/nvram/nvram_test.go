package nvram

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestNewRoundsUpToLine(t *testing.T) {
	d := New(1)
	if d.Size() != LineBytes {
		t.Fatalf("size = %d, want %d", d.Size(), LineBytes)
	}
	d = New(LineBytes + 1)
	if d.Size() != 2*LineBytes {
		t.Fatalf("size = %d, want %d", d.Size(), 2*LineBytes)
	}
}

func TestLoadStore(t *testing.T) {
	d := New(4096)
	d.Store(16, 42)
	if got := d.Load(16); got != 42 {
		t.Fatalf("Load(16) = %d, want 42", got)
	}
	if got := d.Load(24); got != 0 {
		t.Fatalf("Load(24) = %d, want 0", got)
	}
}

// TestVolatileDeviceHasNothingToWriteBack: on a WithVolatile device
// Flush, FlushAll and Fence return at once — no count, no latency, no
// hook — while loads, stores and CASes behave and count as usual.
func TestVolatileDeviceHasNothingToWriteBack(t *testing.T) {
	d := New(4096, WithVolatile(), WithFlushLatency(time.Hour))
	if !d.Volatile() || New(4096).Volatile() {
		t.Fatal("Volatile does not report the construction option")
	}
	d.SetHook(func(op string, off Offset) {
		if op == "flush" {
			t.Fatalf("flush hook fired at %#x", off)
		}
	})
	d.Store(8, 1)
	if !d.CAS(8, 1, 2) {
		t.Fatal("CAS(1->2) failed")
	}
	d.Flush(8)
	d.Fence()
	d.FlushAll()
	if got := d.Stats(); got != (Stats{Stores: 1, CASes: 1}) {
		t.Fatalf("stats = %+v, want one store and one CAS", got)
	}
	if got := d.Load(8); got != 2 {
		t.Fatalf("Load = %d, want 2", got)
	}
}

func TestCAS(t *testing.T) {
	d := New(4096)
	d.Store(8, 1)
	if !d.CAS(8, 1, 2) {
		t.Fatal("CAS(1->2) failed")
	}
	if d.CAS(8, 1, 3) {
		t.Fatal("CAS with stale expected succeeded")
	}
	if got := d.Load(8); got != 2 {
		t.Fatalf("Load = %d, want 2", got)
	}
}

func TestMisalignedAccessPanics(t *testing.T) {
	d := New(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned access did not panic")
		}
	}()
	d.Load(3)
}

func TestOutOfRangeAccessPanics(t *testing.T) {
	d := New(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	d.Store(4096, 1)
}

func TestCrashDiscardsUnflushed(t *testing.T) {
	d := New(4096)
	d.Store(0, 7)
	d.Flush(0)
	d.Store(8, 9) // same line as 0: line already flushed once, now dirty again
	d.Store(128, 11)
	d.Crash()
	if got := d.Load(0); got != 7 {
		t.Fatalf("flushed word lost: Load(0) = %d, want 7", got)
	}
	if got := d.Load(8); got != 0 {
		t.Fatalf("unflushed word survived crash: Load(8) = %d, want 0", got)
	}
	if got := d.Load(128); got != 0 {
		t.Fatalf("unflushed word survived crash: Load(128) = %d, want 0", got)
	}
	if !d.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
}

func TestFlushPersistsWholeLine(t *testing.T) {
	d := New(4096)
	for i := 0; i < LineWords; i++ {
		d.Store(Offset(i*8), uint64(i+1))
	}
	d.Flush(24) // any word in the line flushes the full line
	d.Crash()
	for i := 0; i < LineWords; i++ {
		if got := d.Load(Offset(i * 8)); got != uint64(i+1) {
			t.Fatalf("word %d = %d, want %d", i, got, i+1)
		}
	}
}

func TestDirtyLines(t *testing.T) {
	d := New(4096)
	if n := d.DirtyLines(); n != 0 {
		t.Fatalf("fresh device has %d dirty lines", n)
	}
	d.Store(0, 1)
	d.Store(64, 1)
	d.Store(72, 1) // same line as 64
	if n := d.DirtyLines(); n != 2 {
		t.Fatalf("DirtyLines = %d, want 2", n)
	}
	d.Flush(64)
	if n := d.DirtyLines(); n != 1 {
		t.Fatalf("DirtyLines after flush = %d, want 1", n)
	}
	d.FlushAll()
	if n := d.DirtyLines(); n != 0 {
		t.Fatalf("DirtyLines after FlushAll = %d, want 0", n)
	}
}

func TestPersistedLoad(t *testing.T) {
	d := New(4096)
	d.Store(8, 5)
	if got := d.PersistedLoad(8); got != 0 {
		t.Fatalf("PersistedLoad before flush = %d, want 0", got)
	}
	d.Flush(8)
	if got := d.PersistedLoad(8); got != 5 {
		t.Fatalf("PersistedLoad after flush = %d, want 5", got)
	}
}

func TestStats(t *testing.T) {
	d := New(4096)
	d.Store(0, 1)
	d.Load(0)
	d.CAS(0, 1, 2)
	d.Flush(0)
	d.Fence()
	s := d.Stats()
	if s.Stores != 1 || s.Loads != 1 || s.CASes != 1 || s.Flushes != 1 || s.Fences != 1 {
		t.Fatalf("unexpected stats: %+v", s)
	}
	d.ResetStats()
	if s := d.Stats(); s != (Stats{}) {
		t.Fatalf("stats not reset: %+v", s)
	}
}

func TestEvictionPersistsOpportunistically(t *testing.T) {
	d := New(4096, WithEviction(1)) // evict a random line on every store
	for i := 0; i < 2000; i++ {
		d.Store(Offset((i%512)*8), uint64(i))
	}
	// With one eviction per store over a small arena, at least one line
	// must have been persisted without an explicit flush.
	persisted := false
	for off := Offset(0); off < 4096; off += 8 {
		if d.PersistedLoad(off) != 0 {
			persisted = true
			break
		}
	}
	if !persisted {
		t.Fatal("eviction never persisted anything")
	}
}

func TestConcurrentCASOneWinnerPerTransition(t *testing.T) {
	d := New(4096)
	const goroutines = 8
	const increments = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				for {
					v := d.Load(0)
					if d.CAS(0, v, v+1) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := d.Load(0); got != goroutines*increments {
		t.Fatalf("counter = %d, want %d", got, goroutines*increments)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := New(4096)
	d.Store(8, 1)
	d.Store(520, 2)
	d.FlushAll()
	d.Store(1032, 3) // unflushed: must not appear in the snapshot

	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	d2 := New(4096)
	if err := d2.ReadSnapshot(&buf); err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if got := d2.Load(8); got != 1 {
		t.Fatalf("restored Load(8) = %d, want 1", got)
	}
	if got := d2.Load(520); got != 2 {
		t.Fatalf("restored Load(520) = %d, want 2", got)
	}
	if got := d2.Load(1032); got != 0 {
		t.Fatalf("unflushed word leaked into snapshot: %d", got)
	}
}

func TestSnapshotSizeMismatch(t *testing.T) {
	d := New(4096)
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	d2 := New(8192)
	if err := d2.ReadSnapshot(&buf); err == nil {
		t.Fatal("ReadSnapshot accepted mismatched geometry")
	}
}

func TestSnapshotBadMagic(t *testing.T) {
	d := New(4096)
	if err := d.ReadSnapshot(bytes.NewReader(make([]byte, 32))); err == nil {
		t.Fatal("ReadSnapshot accepted garbage")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	d := New(4096)
	d.Store(16, 99)
	d.FlushAll()
	d.Store(24, 7) // never flushed: not in the image
	if err := d.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	d2, err := LoadFile(path, WithVolatile())
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if d2.Size() != 4096 || !d2.Volatile() {
		t.Fatalf("LoadFile built Size %d, Volatile %v; want the snapshot's 4096 and the option's true", d2.Size(), d2.Volatile())
	}
	if got := d2.Load(16); got != 99 {
		t.Fatalf("Load(16) after LoadFile = %d, want 99", got)
	}
	if got := d2.Load(24); got != 0 {
		t.Fatalf("Load(24) after LoadFile = %d, want 0", got)
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.img")); err == nil {
		t.Fatal("LoadFile of missing file succeeded")
	}
}

// TestLoadFileTruncated: a snapshot whose body is shorter than its header
// records is refused before a device is sized from the header.
func TestLoadFileTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	if err := New(4096).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 16+2048); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "2048") {
		t.Fatalf("LoadFile of a truncated snapshot: %v, want ErrBadSnapshot naming the 2048 bytes the file holds", err)
	}
}

// Property: after an arbitrary mix of stores and flushes followed by a
// crash, every word equals either its last flushed value or a later value
// that an eviction-free device must have discarded — i.e., with eviction
// off, exactly the last value whose line was flushed after the store.
func TestQuickCrashConsistency(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(1024)
		// shadow of the persisted image, maintained by replaying the rules
		shadow := make([]uint64, 1024/WordSize)
		cache := make([]uint64, 1024/WordSize)
		for i := 0; i < int(nOps)+1; i++ {
			w := uint64(rng.Intn(len(cache)))
			if rng.Intn(3) == 0 { // flush the line containing w
				d.Flush(w * 8)
				line := w / LineWords * LineWords
				copy(shadow[line:line+LineWords], cache[line:line+LineWords])
			} else {
				v := rng.Uint64()
				d.Store(w*8, v)
				cache[w] = v
			}
		}
		d.Crash()
		for i := range shadow {
			if d.Load(Offset(i*8)) != shadow[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutCarve(t *testing.T) {
	d := New(8 * LineBytes)
	l := NewLayout(d)
	r1 := l.Carve(1)
	if r1.Base != LineBytes || r1.Len != LineBytes {
		t.Fatalf("r1 = %+v", r1)
	}
	r2 := l.Carve(LineBytes * 2)
	if r2.Base != 2*LineBytes || r2.Len != 2*LineBytes {
		t.Fatalf("r2 = %+v", r2)
	}
	if r1.Contains(r2.Base) {
		t.Fatal("regions overlap")
	}
	if !r2.Contains(r2.Base) || r2.Contains(r2.End()) {
		t.Fatal("Contains boundary conditions wrong")
	}
}

func TestLayoutDeterministicAcrossRestart(t *testing.T) {
	d := New(8 * LineBytes)
	l := NewLayout(d)
	a1, b1 := l.Carve(100), l.Carve(200)
	d.Crash()
	l2 := NewLayout(d)
	a2, b2 := l2.Carve(100), l2.Carve(200)
	if a1 != a2 || b1 != b2 {
		t.Fatalf("layout changed across restart: %+v/%+v vs %+v/%+v", a1, b1, a2, b2)
	}
}

func TestLayoutOverflowPanics(t *testing.T) {
	d := New(2 * LineBytes)
	l := NewLayout(d)
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	l.Carve(10 * LineBytes)
}

func BenchmarkStore(b *testing.B) {
	d := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Store(Offset(i%4096)*8, uint64(i))
	}
}

func BenchmarkCAS(b *testing.B) {
	d := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := Offset(i%4096) * 8
		d.CAS(off, d.Load(off), uint64(i))
	}
}

func BenchmarkFlush(b *testing.B) {
	d := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := Offset(i%4096) * 8
		d.Store(off, uint64(i))
		d.Flush(off)
	}
}

// TestPersistedLoadUnderEviction: with opportunistic eviction racing the
// writer, every persisted word must still be a value that was actually
// stored there (or zero) — eviction persists whole lines atomically with
// respect to word stores, never torn or invented values.
func TestPersistedLoadUnderEviction(t *testing.T) {
	d := New(1024, WithEviction(1), WithEvictionSeed(42))
	written := make(map[Offset]map[uint64]bool)
	for i := 0; i < 500; i++ {
		off := Offset((i % 128) * 8)
		val := uint64(i + 1)
		if written[off] == nil {
			written[off] = map[uint64]bool{0: true}
		}
		written[off][val] = true
		d.Store(off, val)
	}
	for off, vals := range written {
		if got := d.PersistedLoad(off); !vals[got] {
			t.Fatalf("PersistedLoad(%#x) = %d, never stored there", off, got)
		}
	}
	// A clean device agrees with itself: flush everything and the two
	// images must converge word for word.
	d.FlushAll()
	if n := d.DirtyLines(); n != 0 {
		t.Fatalf("DirtyLines after FlushAll = %d", n)
	}
	for off := range written {
		if p, w := d.PersistedLoad(off), d.Load(off); p != w {
			t.Fatalf("images diverge at %#x after FlushAll: persisted %d, working %d", off, p, w)
		}
	}
}

// TestDirtyLinesUnderEviction: eviction may only ever shrink the dirty
// set mid-stream, and DirtyLines must agree with per-word image equality.
func TestDirtyLinesUnderEviction(t *testing.T) {
	d := New(1024, WithEviction(2), WithEvictionSeed(7))
	for i := 0; i < 300; i++ {
		d.Store(Offset((i%128)*8), uint64(i+1))
		if n := d.DirtyLines(); n > 16 {
			t.Fatalf("DirtyLines = %d exceeds line count", n)
		}
	}
	// Every line not reported dirty must have identical images.
	dirty := make(map[uint64]bool)
	for line := uint64(0); line < 16; line++ {
		equal := true
		for w := Offset(line * LineBytes); w < Offset((line+1)*LineBytes); w += 8 {
			if d.PersistedLoad(w) != d.Load(w) {
				equal = false
			}
		}
		if !equal {
			dirty[line] = true
		}
	}
	if n := d.DirtyLines(); n < len(dirty) {
		t.Fatalf("DirtyLines = %d but %d lines have diverged images", n, len(dirty))
	}
}

// TestResetStatsInterleaving: ResetStats clears counters only — the two
// images, the dirty set, and subsequent accounting are unaffected.
func TestResetStatsInterleaving(t *testing.T) {
	d := New(4096)
	d.Store(0, 11)
	d.Store(64, 22)
	d.Flush(0)

	d.ResetStats()
	if s := d.Stats(); s != (Stats{}) {
		t.Fatalf("stats not cleared: %+v", s)
	}
	if got := d.PersistedLoad(0); got != 11 {
		t.Fatalf("ResetStats disturbed persisted image: %d", got)
	}
	if n := d.DirtyLines(); n != 1 {
		t.Fatalf("ResetStats disturbed dirty set: %d lines", n)
	}

	// Post-reset accounting starts from zero and counts only new work.
	d.Flush(64)
	d.Fence()
	s := d.Stats()
	if s.Flushes != 1 || s.Fences != 1 || s.Stores != 0 {
		t.Fatalf("post-reset stats wrong: %+v", s)
	}
	if got := d.PersistedLoad(64); got != 22 {
		t.Fatalf("flush after reset lost data: %d", got)
	}

	// Same invariants with eviction racing the interleave.
	e := New(1024, WithEviction(1), WithEvictionSeed(3))
	for i := 0; i < 100; i++ {
		e.Store(Offset((i%16)*8), uint64(i+1))
		if i%10 == 0 {
			e.ResetStats()
		}
	}
	// Each slot was stored i, i+16, i+32, ... — the persisted value must
	// be zero or one of those, never a value from another slot.
	for slot := Offset(0); slot < 16; slot++ {
		p := e.PersistedLoad(slot * 8)
		if p != 0 && (p-1)%16 != uint64(slot) {
			t.Fatalf("slot %d persisted %d, which was never stored there", slot, p)
		}
	}
	e.FlushAll()
	if n := e.DirtyLines(); n != 0 {
		t.Fatalf("DirtyLines after FlushAll = %d", n)
	}
}

// TestStatsExactUnderConcurrency: the counters are striped over lanes,
// and the totals must still count every access exactly once — whether
// the goroutines work on lines of their own or all on the same few. Each
// round also flushes a line only its goroutine writes twice in a row: the
// first flush finds the line dirty, the second finds it clean, so the
// clean-flush total is exact too.
func TestStatsExactUnderConcurrency(t *testing.T) {
	const goroutines, rounds = 8, 2000
	for _, tc := range []struct {
		name string
		off  func(g, i int) Offset
	}{
		{"disjoint", func(g, i int) Offset { return Offset(g*LineBytes + i%LineWords*WordSize) }},
		{"overlapping", func(g, i int) Offset { return Offset(i % 3 * LineBytes) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := New(2 * goroutines * LineBytes)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					own := Offset((goroutines + g) * LineBytes)
					for i := 0; i < rounds; i++ {
						off := tc.off(g, i)
						d.Load(off)
						for n := 0; n < 2; n++ {
							d.Store(off, uint64(i))
						}
						d.Store(own, uint64(i))
						for n := 0; n < 4; n++ {
							d.CAS(off, 0, 1) // failed attempts count too
						}
						d.Flush(own) // dirty
						d.Flush(own) // clean
						for n := 0; n < 5; n++ {
							d.Fence()
						}
					}
				}(g)
			}
			wg.Wait()
			const n = goroutines * rounds
			want := Stats{Loads: n, Stores: 3 * n, CASes: 4 * n, Flushes: 2 * n, CleanFlushes: n, Fences: 5 * n}
			if got := d.Stats(); got != want {
				t.Fatalf("Stats = %+v, want %+v", got, want)
			}
			d.Crash()
			if got := d.Stats().Crashes; got != 1 {
				t.Fatalf("Crashes = %d, want 1", got)
			}
			d.ResetStats()
			if got := d.Stats(); got != (Stats{}) {
				t.Fatalf("Stats after ResetStats = %+v, want all zero", got)
			}
		})
	}
}

// TestStatLaneLayout pins what keeps two lanes off one host cache line:
// a lane, six counters and their padding, is exactly one line long, and the
// lanes of a running device (and of its crashed clone) start on a line
// boundary in memory, not merely at an aligned field offset.
func TestStatLaneLayout(t *testing.T) {
	if s := unsafe.Sizeof(statLane{}); s != LineBytes {
		t.Fatalf("sizeof(statLane) = %d, want %d", s, LineBytes)
	}
	d := New(1 << 12)
	for name, dev := range map[string]*Device{"New": d, "CloneCrashed": d.CloneCrashed()} {
		if rem := uintptr(unsafe.Pointer(&dev.stats[0])) % LineBytes; rem != 0 {
			t.Errorf("%s: first lane starts %d bytes into a cache line, want 0", name, rem)
		}
	}
}

// BenchmarkDeviceParallel is the device's scaling command: the same
// load/store/CAS/flush/fence round from every worker, on lines of the
// worker's own ("disjoint") or on one line set all workers share
// ("shared", where the simulated words themselves contend). Read it with
// -cpu 1,2: disjoint ns/op should fall as workers are added.
func BenchmarkDeviceParallel(b *testing.B) {
	const size = 1 << 20
	const span = 64 * LineBytes // lines each worker cycles through
	for _, shared := range []bool{false, true} {
		name := "disjoint"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			d := New(size)
			var workers atomic.Uint64
			b.RunParallel(func(pb *testing.PB) {
				base := Offset(0)
				if !shared {
					base = Offset(workers.Add(1)-1) * span % size
				}
				for i := uint64(0); pb.Next(); i++ {
					off := base + Offset(i*LineBytes%span)
					v := d.Load(off)
					d.Store(off+WordSize, v+1)
					d.CAS(off, v, v+1)
					d.Flush(off)
					d.Fence()
				}
			})
			b.ReportMetric(float64(d.Stats().Flushes)/float64(b.N), "flushes/op")
		})
	}
}
