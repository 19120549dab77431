package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// The trace ring records PMwCAS descriptor lifecycle events —
// alloc → execute → help* → decide → retire → finalize — into a bounded
// lock-free ring. It is the tool for debugging help storms: a dump
// shows exactly which descriptors were helped, by whom (lane IDs), and
// how long each phase took, without stopping the server.
//
// What the core layer records is a sample plus every help. Each handle
// samples 1 descriptor in 8 when it allocates one, the same sample its
// latency clocks use; a sampled descriptor records its whole lifecycle
// (alloc, execute or discard, the owner's decide, retire, finalize).
// Every help, and every decide a helper makes, is recorded whatever
// the sample: a helper cannot see the owner's sample, and help storms
// are what the ring is for. An unsampled operation nobody helps records
// nothing, so the fast path pays for five events every eighth operation.
//
// Writers claim a slot with one atomic add and publish with a seqlock
// mark; readers validate the mark around their copy, so a dump taken
// under load skips (rather than tears) slots being overwritten. All
// fields are atomics: a concurrent Record/Dump pair is race-free by
// construction, not by luck.

// Tracing is gated separately from the counters/histograms: every
// event costs a timestamp plus a shared sequence fetch-add. Library
// default is off; pmwcas-server turns it on (its -trace flag defaults
// to true), and the <5% fast-path budget covers it there
// (BenchmarkPMwCASMetricsOverhead's trace=on arm in internal/core).
// Both gates must be open for Record to record.
var traceOn atomic.Bool

// TraceEnable turns lifecycle tracing on or off process-wide.
func TraceEnable(on bool) { traceOn.Store(on) }

// TraceKind labels one lifecycle event.
type TraceKind uint8

// Lifecycle events, in the order a sampled successful operation emits
// them.
const (
	// TraceAlloc: a descriptor left the free list (aux = callback ID).
	TraceAlloc TraceKind = iota + 1
	// TraceExecute: the owner entered Execute (aux = word count).
	TraceExecute
	// TraceHelp: a non-owner thread executed the descriptor (actor is
	// the helper's lane). Recorded for every descriptor, sampled or not.
	TraceHelp
	// TraceDecide: the status CAS moved Undecided to a final status
	// (aux = 1 success, 0 failure). Recorded by the deciding thread only:
	// always when it is a helper, for a sampled descriptor when it is
	// the owner.
	TraceDecide
	// TraceDiscard: the owner cancelled before execution.
	TraceDiscard
	// TraceRetire: the descriptor was handed to the epoch machinery
	// (aux = 1 success, 0 failure/discard).
	TraceRetire
	// TraceFinalize: recycling policies ran and the descriptor returned
	// durably to Free.
	TraceFinalize
)

var traceKindNames = map[TraceKind]string{
	TraceAlloc:    "alloc",
	TraceExecute:  "execute",
	TraceHelp:     "help",
	TraceDecide:   "decide",
	TraceDiscard:  "discard",
	TraceRetire:   "retire",
	TraceFinalize: "finalize",
}

func (k TraceKind) String() string {
	if n, ok := traceKindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name, so dumps read without a
// decoder ring.
func (k TraceKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts either the name or the raw number.
func (k *TraceKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		for kk, n := range traceKindNames {
			if n == s {
				*k = kk
				return nil
			}
		}
		return fmt.Errorf("metrics: unknown trace kind %q", s)
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*k = TraceKind(n)
	return nil
}

// A TraceEvent is one recorded lifecycle step.
type TraceEvent struct {
	// Seq is the global record order (monotonic, gap-free while the
	// ring keeps up; old events are overwritten, never reordered).
	Seq uint64 `json:"seq"`
	// T is the wall-clock timestamp in UnixNano.
	T int64 `json:"t_ns"`
	// Kind is the lifecycle step.
	Kind TraceKind `json:"kind"`
	// Desc is the descriptor's NVRAM offset — the lifecycle key.
	Desc uint64 `json:"desc"`
	// Actor is the lane of the recording goroutine: under a help storm,
	// distinct actors on one descriptor are the helpers.
	Actor uint32 `json:"actor"`
	// Aux is kind-specific (see the kind constants).
	Aux uint64 `json:"aux"`
}

// traceSlot is one ring entry. Every field is an atomic; mark is the
// seqlock: 0 while a writer owns the slot, the event's Seq once
// published.
type traceSlot struct {
	mark atomic.Uint64
	t    atomic.Int64
	desc atomic.Uint64
	meta atomic.Uint64 // kind<<32 | actor
	aux  atomic.Uint64
}

// DefaultTraceCap is the default ring capacity (events, power of two).
const DefaultTraceCap = 4096

// A TraceRing is a bounded lock-free event ring.
type TraceRing struct {
	mask  uint64
	seq   atomic.Uint64
	slots []traceSlot
}

// NewTraceRing builds a ring with at least capacity events (rounded up
// to a power of two).
func NewTraceRing(capacity int) *TraceRing {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &TraceRing{mask: uint64(n - 1), slots: make([]traceSlot, n)}
}

var defTrace = NewTraceRing(DefaultTraceCap)

// DefaultTrace is the process-wide ring the core layer records into.
func DefaultTrace() *TraceRing { return defTrace }

// Record appends one event. No-op unless both metrics and tracing are
// enabled. Lock-free: one atomic add claims the slot, atomics fill it,
// one store publishes.
//
//pmwcas:hotpath — traces sampled descriptor lifecycles and every help; runs inside install and help paths
func (r *TraceRing) Record(k TraceKind, desc uint64, actor Stripe, aux uint64) {
	if !traceOn.Load() || !enabled.Load() {
		return
	}
	s := r.seq.Add(1)
	sl := &r.slots[(s-1)&r.mask]
	sl.mark.Store(0)
	sl.t.Store(time.Now().UnixNano())
	sl.desc.Store(desc)
	sl.meta.Store(uint64(k)<<32 | uint64(actor.i))
	sl.aux.Store(aux)
	sl.mark.Store(s)
}

// Len returns the number of events recorded over the ring's lifetime
// (not the number still resident).
func (r *TraceRing) Len() uint64 { return r.seq.Load() }

// Dump copies out every resident event, oldest first. Slots a writer is
// mid-publish on (or lapped during the copy) are skipped — a dump under
// load is a consistent sample, never a torn record.
func (r *TraceRing) Dump() []TraceEvent {
	out := make([]TraceEvent, 0, len(r.slots))
	for i := range r.slots {
		sl := &r.slots[i]
		m := sl.mark.Load()
		if m == 0 {
			continue
		}
		ev := TraceEvent{
			Seq:  m,
			T:    sl.t.Load(),
			Desc: sl.desc.Load(),
			Aux:  sl.aux.Load(),
		}
		meta := sl.meta.Load()
		ev.Kind = TraceKind(meta >> 32)
		ev.Actor = uint32(meta)
		if sl.mark.Load() != m {
			continue // lapped mid-copy
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// DumpJSON renders Dump as a JSON array — the payload of the METRICS
// "trace" view and the -debug-addr /trace endpoint.
func (r *TraceRing) DumpJSON() ([]byte, error) {
	return json.Marshal(r.Dump())
}

// ParseTrace decodes a DumpJSON payload (the pmwcas-inspect side).
func ParseTrace(b []byte) ([]TraceEvent, error) {
	var evs []TraceEvent
	if err := json.Unmarshal(b, &evs); err != nil {
		return nil, err
	}
	return evs, nil
}
