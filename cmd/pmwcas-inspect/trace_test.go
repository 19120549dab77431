package main

import (
	"bytes"
	"strings"
	"testing"

	"pmwcas/internal/metrics"
)

// TestGroupLifecyclesSplitsReusedSlots: slot 0x40 carries two sampled
// operations (the free list hands a freed slot out first) with a helped,
// unsampled one between them, and slot 0x80 only a help. Each operation
// gets its own lifecycle, ordered by first event, and the help-only
// groups say their lifecycle was not sampled.
func TestGroupLifecyclesSplitsReusedSlots(t *testing.T) {
	kinds := []struct {
		k    metrics.TraceKind
		desc uint64
	}{
		{metrics.TraceAlloc, 0x40}, {metrics.TraceExecute, 0x40},
		{metrics.TraceHelp, 0x80}, // an unsampled operation on another slot
		{metrics.TraceDecide, 0x40}, {metrics.TraceRetire, 0x40},
		{metrics.TraceDecide, 0x80}, // its helper's decision
		{metrics.TraceFinalize, 0x40},
		{metrics.TraceHelp, 0x40}, // 0x40 reused by an unsampled operation
		{metrics.TraceAlloc, 0x40}, {metrics.TraceExecute, 0x40},
		{metrics.TraceDecide, 0x40}, {metrics.TraceRetire, 0x40},
		{metrics.TraceFinalize, 0x40},
	}
	evs := make([]metrics.TraceEvent, len(kinds))
	for i, k := range kinds {
		evs[i] = metrics.TraceEvent{Seq: uint64(i + 1), T: int64(i * 100), Kind: k.k, Desc: k.desc}
	}
	ls := groupLifecycles(evs)
	want := []struct {
		desc  uint64
		seqs  []uint64
		label string
	}{
		{0x40, []uint64{1, 2, 4, 5, 7}, "sampled"},
		{0x80, []uint64{3, 6}, "helped; lifecycle not sampled"},
		{0x40, []uint64{8}, "helped; lifecycle not sampled"},
		{0x40, []uint64{9, 10, 11, 12, 13}, "sampled"},
	}
	if len(ls) != len(want) {
		t.Fatalf("got %d lifecycles, want %d: %+v", len(ls), len(want), ls)
	}
	for i, w := range want {
		l := ls[i]
		if l.desc != w.desc || l.label() != w.label || len(l.evs) != len(w.seqs) {
			t.Fatalf("lifecycle %d = desc %#x %q with %d events, want desc %#x %q with %d",
				i, l.desc, l.label(), len(l.evs), w.desc, w.label, len(w.seqs))
		}
		for j, seq := range w.seqs {
			if l.evs[j].Seq != seq {
				t.Fatalf("lifecycle %d event %d has seq %d, want %d", i, j, l.evs[j].Seq, seq)
			}
		}
	}

	// A dump whose oldest events the ring overwrote starts mid-lifecycle.
	if l := groupLifecycles(evs[3:])[0]; l.label() != "alloc overwritten" {
		t.Fatalf("a group holding owner events but no alloc is labelled %q", l.label())
	}

	var out bytes.Buffer
	printLifecycles(&out, evs)
	if got := out.String(); !strings.HasPrefix(got, "13 events, 4 lifecycles\n") ||
		strings.Count(got, "helped; lifecycle not sampled") != 2 {
		t.Fatalf("printed:\n%s", got)
	}
}
