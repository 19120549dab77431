package keycodec

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	cases := []string{"", "a", "ab", "abc", "USD/EUR"[:7], "\x00", "a\x00", "\xff\xff"}
	for _, s := range cases {
		k, err := EncodeString(s)
		if err != nil {
			t.Fatalf("Encode(%q): %v", s, err)
		}
		if k == 0 {
			t.Fatalf("Encode(%q) = 0 (reserved)", s)
		}
		got, err := DecodeString(k)
		if err != nil {
			t.Fatalf("Decode(Encode(%q)): %v", s, err)
		}
		if got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
	}
}

func TestTooLong(t *testing.T) {
	if _, err := EncodeString("12345678"); err == nil {
		t.Fatal("8-byte key accepted")
	}
	if _, _, err := PrefixRange(bytes.Repeat([]byte{1}, 8)); err == nil {
		t.Fatal("8-byte prefix accepted")
	}
}

func TestMustEncodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustEncode did not panic on oversize key")
		}
	}()
	MustEncode("12345678")
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(0); err == nil {
		t.Fatal("Decode(0) succeeded")
	}
	// Length 3 with nonzero bytes past the length.
	bad := (uint64(0x6162630000ff00)<<4 | 3) + 1
	if _, err := Decode(bad); err == nil {
		t.Fatal("nonzero padding accepted")
	}
	if _, err := Decode((0<<4 | 9) + 1 + 16); err == nil { // length nibble 9
		t.Fatal("corrupt length accepted")
	}
}

// The defining property: encoding preserves lexicographic order exactly.
func TestQuickOrderPreservation(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) > MaxLen {
			a = a[:MaxLen]
		}
		if len(b) > MaxLen {
			b = b[:MaxLen]
		}
		ka, err1 := Encode(a)
		kb, err2 := Encode(b)
		if err1 != nil || err2 != nil {
			return false
		}
		switch bytes.Compare(a, b) {
		case -1:
			return ka < kb
		case 0:
			return ka == kb
		default:
			return ka > kb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestSortedStringsSortedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	strs := make([]string, 500)
	for i := range strs {
		n := rng.Intn(MaxLen + 1)
		b := make([]byte, n)
		rng.Read(b)
		strs[i] = string(b)
	}
	sort.Strings(strs)
	prev := uint64(0)
	for i, s := range strs {
		k := MustEncode(s)
		if i > 0 && k < prev {
			t.Fatalf("order violated at %d: %q", i, s)
		}
		if i > 0 && k == prev && s != strs[i-1] {
			t.Fatalf("distinct strings collided: %q vs %q", strs[i-1], s)
		}
		prev = k
	}
}

func TestPrefixRange(t *testing.T) {
	lo, hi, err := PrefixRange([]byte("ab"))
	if err != nil {
		t.Fatal(err)
	}
	inRange := func(s string) bool {
		k := MustEncode(s)
		return k >= lo && k <= hi
	}
	for _, s := range []string{"ab", "ab\x00", "abz", "ab\xff\xff\xff\xff\xff"} {
		if !inRange(s) {
			t.Fatalf("%q not in prefix range", s)
		}
	}
	for _, s := range []string{"aa", "ac", "a", "b", ""} {
		if inRange(s) {
			t.Fatalf("%q wrongly in prefix range", s)
		}
	}
}

func TestKeysFitIndexDomain(t *testing.T) {
	// Largest possible encoding must stay under the indexes' MaxKey
	// (2^60 - 1) and above 0.
	k := MustEncode("\xff\xff\xff\xff\xff\xff\xff")
	if k >= 1<<60-1 {
		t.Fatalf("max key %#x exceeds index domain", k)
	}
	if MustEncode("") == 0 {
		t.Fatal("empty string encodes to reserved key 0")
	}
}

func BenchmarkEncode(b *testing.B) {
	s := []byte("EURUSD")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(s)
	}
}

func BenchmarkDecode(b *testing.B) {
	k := MustEncode("EURUSD")
	for i := 0; i < b.N; i++ {
		Decode(k)
	}
}

// BenchmarkAppendDecode times the scratch-reusing decode path;
// TestCodecAllocFree pins its allocation count.
func BenchmarkAppendDecode(b *testing.B) {
	k, err := EncodeString("seven77")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, MaxLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := AppendDecode(buf[:0], k)
		if err != nil {
			b.Fatal(err)
		}
		buf = out
	}
}

// TestCodecAllocFree pins the key codec's allocation budget: Encode, and
// AppendDecode once the buffer has its capacity, allocate nothing.
func TestCodecAllocFree(t *testing.T) {
	s := []byte("seven77")
	buf := make([]byte, 0, MaxLen)
	got := testing.AllocsPerRun(1000, func() {
		k, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		if buf, err = AppendDecode(buf[:0], k); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("Encode+AppendDecode = %v allocs/op, budget 0", got)
	}
}
