package core

import (
	"testing"

	"pmwcas/internal/metrics"
)

// traceSince returns the ring's events recorded after sequence number from.
func traceSince(from uint64) []metrics.TraceEvent {
	var out []metrics.TraceEvent
	for _, ev := range metrics.DefaultTrace().Dump() {
		if ev.Seq > from {
			out = append(out, ev)
		}
	}
	return out
}

// TestTraceSamplesLifecycles pins the trace ring's sample. A handle's 64
// uncontended PMwCASes leave exactly 8 complete lifecycles (alloc,
// execute, decide, retire, finalize, in Seq order on one offset), as
// many as the exec-latency clock observed, and nothing else. A help is
// recorded even for a descriptor outside the sample.
func TestTraceSamplesLifecycles(t *testing.T) {
	metrics.Enable(true)
	metrics.TraceEnable(true)
	defer metrics.TraceEnable(false)

	e := newEnv(t, Persistent, false)
	addrs := e.initWords(0, 0, 0, 0)
	h := e.pool.NewHandle()
	from := metrics.DefaultTrace().Len()
	lat := mExecLat.Snapshot().Count
	for i := 0; i < 64; i++ {
		d, err := h.AllocateDescriptor(0)
		if err != nil {
			t.Fatal(err)
		}
		v := uint64(i)
		for _, a := range addrs {
			d.AddWord(a, v, v+1)
		}
		if ok, err := d.Execute(); !ok || err != nil {
			t.Fatalf("op %d: Execute = %v, %v", i, ok, err)
		}
	}
	e.pool.Epochs().Drain()

	want := []metrics.TraceKind{metrics.TraceAlloc, metrics.TraceExecute,
		metrics.TraceDecide, metrics.TraceRetire, metrics.TraceFinalize}
	evs := traceSince(from)
	open := make(map[uint64][]metrics.TraceKind) // desc -> its lifecycle so far
	done := 0
	for _, ev := range evs {
		got := append(open[ev.Desc], ev.Kind)
		if k := len(got) - 1; k >= len(want) || got[k] != want[k] {
			t.Fatalf("desc %#x recorded %v, want a prefix of %v", ev.Desc, got, want)
		}
		open[ev.Desc] = got
		if ev.Kind == metrics.TraceFinalize {
			delete(open, ev.Desc)
			done++
		}
	}
	if len(open) != 0 || done != 8 || len(evs) != 8*len(want) {
		t.Fatalf("%d events, %d complete lifecycles, %d open; want 8 complete and no other event", len(evs), done, len(open))
	}
	if n := mExecLat.Snapshot().Count - lat; n != uint64(done) {
		t.Fatalf("exec-latency clock observed %d operations, the ring traced %d", n, done)
	}

	// plantStalledRDCSS stages its descriptor on a fresh handle, whose
	// first descriptor is outside the sample; the reader helps it anyway.
	mdesc, addr0, _ := plantStalledRDCSS(t, e)
	from = metrics.DefaultTrace().Len()
	e.pool.NewHandle().Read(addr0)
	var helped, decided bool
	for _, ev := range traceSince(from) {
		if ev.Desc != mdesc {
			continue
		}
		switch ev.Kind {
		case metrics.TraceHelp:
			helped = true
		case metrics.TraceDecide:
			decided = ev.Aux == 1
		default:
			t.Fatalf("unsampled descriptor recorded %v", ev.Kind)
		}
	}
	if !helped || !decided {
		t.Fatalf("help recorded %v, helper's successful decide recorded %v; want both", helped, decided)
	}
}
