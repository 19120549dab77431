package crashsweep

import (
	"bytes"
	"fmt"
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

// ---- integer KV oracle (every word index) ----------------------------

type kvKind int

const (
	kvPut kvKind = iota
	kvDelete
)

type kvOp struct {
	kind kvKind
	key  uint64
	val  uint64
}

func (op kvOp) String() string {
	if op.kind == kvDelete {
		return fmt.Sprintf("delete(%#x)", op.key)
	}
	return fmt.Sprintf("put(%#x, %#x)", op.key, op.val)
}

// stateFunc selects one index's entries from a recovered image.
type stateFunc func(*pmwcas.DurableState) []pmwcas.IndexEntry

type kvOracle struct {
	mu      sync.Mutex
	state   stateFunc
	model   map[uint64]uint64
	pending *kvOp
}

func newKVOracle(state stateFunc) *kvOracle {
	return &kvOracle{state: state, model: map[uint64]uint64{}}
}

func (o *kvOracle) begin(op kvOp) {
	o.mu.Lock()
	o.pending = &op
	o.mu.Unlock()
}

// commit resolves the pending operation: applied folds it into the
// model, !applied drops it (the operation returned an error and left no
// durable trace).
func (o *kvOracle) commit(applied bool) {
	o.mu.Lock()
	if applied && o.pending != nil {
		applyKV(o.model, *o.pending)
	}
	o.pending = nil
	o.mu.Unlock()
}

// expect returns the model's view of key for live read-back checks.
func (o *kvOracle) expect(key uint64) (uint64, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	v, ok := o.model[key]
	return v, ok
}

func applyKV(m map[uint64]uint64, op kvOp) {
	if op.kind == kvDelete {
		delete(m, op.key)
	} else {
		m[op.key] = op.val
	}
}

func (o *kvOracle) snapshot() snap {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := &kvSnap{state: o.state, model: make(map[uint64]uint64, len(o.model))}
	for k, v := range o.model {
		s.model[k] = v
	}
	if o.pending != nil {
		op := *o.pending
		s.pending = &op
	}
	return s
}

type kvSnap struct {
	state   stateFunc
	model   map[uint64]uint64
	pending *kvOp
}

func (s *kvSnap) match(ds *pmwcas.DurableState) error {
	got := map[uint64]uint64{}
	for _, e := range s.state(ds) {
		got[e.Key] = e.Value
	}
	if err := diffKV(got, s.model); err == nil {
		return nil
	}
	if s.pending != nil {
		alt := make(map[uint64]uint64, len(s.model)+1)
		for k, v := range s.model {
			alt[k] = v
		}
		applyKV(alt, *s.pending)
		if err := diffKV(got, alt); err == nil {
			return nil
		}
	}
	err := diffKV(got, s.model)
	if s.pending != nil {
		return fmt.Errorf("recovered state matches neither model nor model+%v: %w", *s.pending, err)
	}
	return fmt.Errorf("recovered state diverges from model with no operation in flight: %w", err)
}

func diffKV(got, want map[uint64]uint64) error {
	for k, v := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("key %#x missing (want %#x)", k, v)
		}
		if g != v {
			return fmt.Errorf("key %#x = %#x, want %#x", k, g, v)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("unexpected key %#x = %#x", k, g)
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

// ---- byte-string blob oracle (blobkv, server) ------------------------

type blobOp struct {
	del bool
	key string
	val []byte
}

type blobOracle struct {
	mu      sync.Mutex
	model   map[string][]byte
	pending *blobOp
}

func newBlobOracle() *blobOracle { return &blobOracle{model: map[string][]byte{}} }

func (o *blobOracle) begin(op blobOp) {
	o.mu.Lock()
	o.pending = &op
	o.mu.Unlock()
}

func (o *blobOracle) commit(applied bool) {
	o.mu.Lock()
	if applied && o.pending != nil {
		applyBlob(o.model, *o.pending)
	}
	o.pending = nil
	o.mu.Unlock()
}

func (o *blobOracle) expect(key string) ([]byte, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	v, ok := o.model[key]
	return v, ok
}

func applyBlob(m map[string][]byte, op blobOp) {
	if op.del {
		delete(m, op.key)
	} else {
		m[op.key] = op.val
	}
}

func (o *blobOracle) snapshot() snap {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := &blobSnap{model: make(map[string][]byte, len(o.model))}
	for k, v := range o.model {
		s.model[k] = v
	}
	if o.pending != nil {
		op := *o.pending
		s.pending = &op
	}
	return s
}

type blobSnap struct {
	model   map[string][]byte
	pending *blobOp
}

func (s *blobSnap) match(ds *pmwcas.DurableState) error {
	if err := diffBlob(ds.Blobs, s.model); err == nil {
		return nil
	}
	if s.pending != nil {
		alt := make(map[string][]byte, len(s.model)+1)
		for k, v := range s.model {
			alt[k] = v
		}
		applyBlob(alt, *s.pending)
		if err := diffBlob(ds.Blobs, alt); err == nil {
			return nil
		}
	}
	err := diffBlob(ds.Blobs, s.model)
	if s.pending != nil {
		kind := "put"
		if s.pending.del {
			kind = "delete"
		}
		return fmt.Errorf("recovered blobs match neither model nor model+%s(%q): %w", kind, s.pending.key, err)
	}
	return fmt.Errorf("recovered blobs diverge from model with no operation in flight: %w", err)
}

func diffBlob(got, want map[string][]byte) error {
	for k, v := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("key %q missing", k)
		}
		if !bytes.Equal(g, v) {
			return fmt.Errorf("key %q holds %d bytes %x, want %d bytes %x", k, len(g), g, len(v), v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("unexpected key %q", k)
		}
	}
	return nil
}
