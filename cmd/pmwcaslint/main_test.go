package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoArgsUsage: invoking the driver with no package pattern must
// print usage and exit 2 rather than silently linting the current
// directory.
func TestNoArgsUsage(t *testing.T) {
	stderr := captureFile(t)
	if got := run(nil, os.Stdout, stderr); got != 2 {
		t.Fatalf("run() with no args = %d, want 2", got)
	}
	out := readBack(t, stderr)
	if !strings.Contains(out, "usage: pmwcaslint") {
		t.Fatalf("run() with no args printed %q, want usage message", out)
	}
}

// TestFlagsOnlyUsage: flags without a package pattern are equally
// useless; go vet would fall back to the current directory.
func TestFlagsOnlyUsage(t *testing.T) {
	stderr := captureFile(t)
	if got := run([]string{"-audit"}, os.Stdout, stderr); got != 2 {
		t.Fatalf("run(-audit) with no packages = %d, want 2", got)
	}
	if !strings.Contains(readBack(t, stderr), "usage: pmwcaslint") {
		t.Fatal("run(-audit) with no packages did not print usage")
	}
}

// TestJSONOnlyUsage: -json still requires a package pattern.
func TestJSONOnlyUsage(t *testing.T) {
	stderr := captureFile(t)
	if got := run([]string{"-json"}, os.Stdout, stderr); got != 2 {
		t.Fatalf("run(-json) with no packages = %d, want 2", got)
	}
	if !strings.Contains(readBack(t, stderr), "usage: pmwcaslint") {
		t.Fatal("run(-json) with no packages did not print usage")
	}
}

// TestFlattenVetJSON: the `go vet -json` stream — `# pkg` comments plus
// one JSON object per package — flattens into a deterministic slice.
func TestFlattenVetJSON(t *testing.T) {
	raw := []byte(`# pmwcas/internal/b
{
	"pmwcas/internal/b": {
		"rawload": [
			{"posn": "/repo/internal/b/x.go:15:35", "message": "raw load"}
		]
	}
}
# pmwcas/internal/a
{
	"pmwcas/internal/a": {
		"storefence": [
			{"posn": "/repo/internal/a/y.go:7:3", "message": "store never flushed"},
			{"posn": "/repo/internal/a/y.go:4:1", "message": "store never fenced"}
		]
	}
}
`)
	diags, err := flattenVetJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 3 {
		t.Fatalf("flattened %d diagnostics, want 3", len(diags))
	}
	want := []jsonDiag{
		{File: "/repo/internal/a/y.go", Line: 4, Col: 1, Analyzer: "storefence", Message: "store never fenced"},
		{File: "/repo/internal/a/y.go", Line: 7, Col: 3, Analyzer: "storefence", Message: "store never flushed"},
		{File: "/repo/internal/b/x.go", Line: 15, Col: 35, Analyzer: "rawload", Message: "raw load"},
	}
	for i := range want {
		if diags[i] != want[i] {
			t.Fatalf("diags[%d] = %+v, want %+v", i, diags[i], want[i])
		}
	}
}

// TestFlattenVetJSONEmpty: a clean run must yield a non-nil empty slice
// so the report encodes as [], not null.
func TestFlattenVetJSONEmpty(t *testing.T) {
	diags, err := flattenVetJSON([]byte("# pmwcas/internal/clean\n"))
	if err != nil {
		t.Fatal(err)
	}
	if diags == nil || len(diags) != 0 {
		t.Fatalf("flattenVetJSON(clean) = %#v, want empty non-nil slice", diags)
	}
}

func TestSplitPosn(t *testing.T) {
	for _, tc := range []struct {
		posn string
		file string
		line int
		col  int
	}{
		{"/repo/x.go:12:3", "/repo/x.go", 12, 3},
		{"C:\\repo\\x.go:12:3", "C:\\repo\\x.go", 12, 3},
		{"x.go:5", "x.go", 0, 5}, // degraded posn: parts decay, never fail
	} {
		f, l, c := splitPosn(tc.posn)
		if f != tc.file || l != tc.line || c != tc.col {
			t.Fatalf("splitPosn(%q) = (%q, %d, %d), want (%q, %d, %d)",
				tc.posn, f, l, c, tc.file, tc.line, tc.col)
		}
	}
}

func captureFile(t *testing.T) *os.File {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func readBack(t *testing.T, f *os.File) string {
	t.Helper()
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
