package crashsweep

import (
	"bytes"
	"fmt"
	"maps"
	"sync"

	"pmwcas"
)

// An oracle tracks the durably-linearizable envelope of a single-driver
// workload: the model holds every acknowledged operation's effect, and
// pending holds the at-most-one operation in flight. A crash image taken
// at any device operation must recover to exactly the model, or to the
// model with the pending operation applied — anything else is a lost ack
// or a torn operation.
//
// The mutex makes oracle state safe to snapshot from the device hook,
// which for the server workload fires on the connection goroutine while
// the driving client blocks on the wire.
type oracle interface {
	// snapshot captures an immutable matcher for the current model and
	// pending operation. Called from the device hook at a crash point.
	snapshot() snap
}

// snap matches one crash image's recovered contents against the oracle
// state captured when the image was taken.
type snap interface {
	match(ds *pmwcas.DurableState) error
}

// ---- map oracle (every word index, every blob layer) -----------------

// mapOp is one put or delete on a key/value model.
type mapOp[K comparable, V any] struct {
	del bool
	key K
	val V // put only
}

func (op mapOp[K, V]) String() string {
	if op.del {
		return fmt.Sprintf("delete(%#v)", op.key)
	}
	return fmt.Sprintf("put(%#v, %#v)", op.key, op.val)
}

func (op mapOp[K, V]) apply(m map[K]V) {
	if op.del {
		delete(m, op.key)
	} else {
		m[op.key] = op.val
	}
}

// mapOracle models a key/value workload. state extracts the recovered
// contents from an image; equal compares two values.
type mapOracle[K comparable, V any] struct {
	state func(*pmwcas.DurableState) map[K]V
	equal func(a, b V) bool

	mu      sync.Mutex
	model   map[K]V
	pending *mapOp[K, V]
}

// kvOracle models a word index; blobOracle a blob layer.
type (
	kvOracle   = mapOracle[uint64, uint64]
	kvOp       = mapOp[uint64, uint64]
	blobOracle = mapOracle[string, []byte]
	blobOp     = mapOp[string, []byte]
)

// stateFunc selects one index's entries from a recovered image.
type stateFunc func(*pmwcas.DurableState) []pmwcas.IndexEntry

func newKVOracle(entries stateFunc) *kvOracle {
	return &kvOracle{
		state: func(ds *pmwcas.DurableState) map[uint64]uint64 {
			m := map[uint64]uint64{}
			for _, e := range entries(ds) {
				m[e.Key] = e.Value
			}
			return m
		},
		equal: func(a, b uint64) bool { return a == b },
		model: map[uint64]uint64{},
	}
}

func newBlobOracle() *blobOracle {
	return &blobOracle{
		state: func(ds *pmwcas.DurableState) map[string][]byte { return ds.Blobs },
		equal: bytes.Equal,
		model: map[string][]byte{},
	}
}

func (o *mapOracle[K, V]) begin(op mapOp[K, V]) {
	o.mu.Lock()
	o.pending = &op
	o.mu.Unlock()
}

// commit resolves the pending operation: applied folds it into the
// model, !applied drops it (the operation returned an error and left no
// durable trace).
func (o *mapOracle[K, V]) commit(applied bool) {
	o.mu.Lock()
	if applied && o.pending != nil {
		o.pending.apply(o.model)
	}
	o.pending = nil
	o.mu.Unlock()
}

// expect returns the model's view of key for live read-back checks.
func (o *mapOracle[K, V]) expect(key K) (V, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	v, ok := o.model[key]
	return v, ok
}

func (o *mapOracle[K, V]) snapshot() snap {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := &mapSnap[K, V]{o: o, model: maps.Clone(o.model)}
	if o.pending != nil {
		op := *o.pending
		s.pending = &op
	}
	return s
}

type mapSnap[K comparable, V any] struct {
	o       *mapOracle[K, V] // for state and equal only
	model   map[K]V
	pending *mapOp[K, V]
}

func (s *mapSnap[K, V]) match(ds *pmwcas.DurableState) error {
	got := s.o.state(ds)
	err := s.diff(got, s.model)
	if err == nil {
		return nil
	}
	if s.pending == nil {
		return fmt.Errorf("recovered state diverges from model with no operation in flight: %w", err)
	}
	alt := maps.Clone(s.model)
	s.pending.apply(alt)
	if s.diff(got, alt) == nil {
		return nil
	}
	return fmt.Errorf("recovered state matches neither model nor model+%v: %w", *s.pending, err)
}

func (s *mapSnap[K, V]) diff(got, want map[K]V) error {
	for k, v := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("key %#v missing (want %#v)", k, v)
		}
		if !s.o.equal(g, v) {
			return fmt.Errorf("key %#v = %#v, want %#v", k, g, v)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("unexpected key %#v = %#v", k, g)
		}
	}
	return nil
}

// ---- FIFO queue oracle -----------------------------------------------

type queueOracle struct {
	mu      sync.Mutex
	values  []uint64
	pending *queueOp
}

type queueOp struct {
	enqueue bool
	val     uint64 // enqueue only
}

func newQueueOracle() *queueOracle { return &queueOracle{} }

func (o *queueOracle) begin(op queueOp) {
	o.mu.Lock()
	o.pending = &op
	o.mu.Unlock()
}

// commitEnqueue resolves a pending enqueue.
func (o *queueOracle) commitEnqueue(applied bool) {
	o.mu.Lock()
	if applied && o.pending != nil {
		o.values = append(o.values, o.pending.val)
	}
	o.pending = nil
	o.mu.Unlock()
}

// commitDequeue resolves a pending dequeue, verifying FIFO order of the
// returned value against the model.
func (o *queueOracle) commitDequeue(applied bool, got uint64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	defer func() { o.pending = nil }()
	if !applied {
		if len(o.values) != 0 {
			return fmt.Errorf("dequeue reported empty with %d values queued", len(o.values))
		}
		return nil
	}
	if len(o.values) == 0 {
		return fmt.Errorf("dequeue returned %#x from an empty model", got)
	}
	if o.values[0] != got {
		return fmt.Errorf("dequeue returned %#x, FIFO order says %#x", got, o.values[0])
	}
	o.values = o.values[1:]
	return nil
}

func (o *queueOracle) snapshot() snap {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := &queueSnap{values: append([]uint64(nil), o.values...)}
	if o.pending != nil {
		op := *o.pending
		s.pending = &op
	}
	return s
}

type queueSnap struct {
	values  []uint64
	pending *queueOp
}

func (s *queueSnap) match(ds *pmwcas.DurableState) error {
	if equalU64(ds.Queue, s.values) {
		return nil
	}
	if s.pending != nil {
		if s.pending.enqueue {
			if equalU64(ds.Queue, append(append([]uint64(nil), s.values...), s.pending.val)) {
				return nil
			}
		} else if len(s.values) > 0 && equalU64(ds.Queue, s.values[1:]) {
			return nil
		}
		return fmt.Errorf("recovered queue %v matches neither model %v nor model with pending applied", ds.Queue, s.values)
	}
	return fmt.Errorf("recovered queue %v, model %v, no operation in flight", ds.Queue, s.values)
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
