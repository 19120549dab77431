package main

import (
	"testing"

	"pmwcas/internal/wire"
)

// TestAccountCountsScanEntriesOnly pins the "scanned: N entries" line: a
// GET hit's single entry is a value, not a scanned entry, so a 0%-scan
// mix must report zero.
func TestAccountCountsScanEntriesOnly(t *testing.T) {
	one := []wire.Entry{{Value: []byte("v")}}
	three := []wire.Entry{{Key: []byte("a")}, {Key: []byte("b")}, {Key: []byte("c")}}

	var w worker
	w.account(wire.OpGet, &wire.Response{Status: wire.StatusOK, Entries: one})
	w.account(wire.OpPut, &wire.Response{Status: wire.StatusOK})
	w.account(wire.OpGet, &wire.Response{Status: wire.StatusNotFound})
	if w.scanned != 0 || w.done != 3 || w.notFound != 1 || w.errs != 0 {
		t.Fatalf("no-scan mix: scanned %d done %d notFound %d errs %d, want 0 3 1 0",
			w.scanned, w.done, w.notFound, w.errs)
	}

	w.account(wire.OpScan, &wire.Response{Status: wire.StatusOK, Entries: three})
	w.account(wire.OpScan, &wire.Response{Status: wire.StatusBadRequest, Msg: "unordered", Entries: three})
	if w.scanned != 3 || w.done != 5 || w.errs != 1 || w.err == nil {
		t.Fatalf("after scans: scanned %d done %d errs %d err %v, want 3 5 1 non-nil",
			w.scanned, w.done, w.errs, w.err)
	}
}
