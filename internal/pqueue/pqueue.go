// Package pqueue is a persistent lock-free FIFO queue built on PMwCAS —
// the paper's §6 generality claim made concrete ("the use of PMwCAS
// applies beyond indexing; one can use it to ease the implementation of
// any lock-free protocol that requires atomically updating multiple
// arbitrary memory words").
//
// The classic Michael-Scott queue needs two separate CASes to enqueue
// (link the node, then swing the tail) and therefore a help-along rule:
// any thread that finds the tail lagging must swing it before making
// progress. With PMwCAS both words move atomically:
//
//	enqueue:  { tailNode.next: 0 → n,  tailAnchor: tailNode → n }
//	dequeue:  { headAnchor: sentinel → first }   (FreeOldOnSuccess)
//
// The tail can never lag, so the helping protocol — and the subtle
// tail-behind-head reasoning of the original algorithm — is simply gone,
// mirroring what §6.1/§6.2 report for the indexes. Persistence and crash
// recovery come from the descriptor machinery: a crashed enqueue either
// fully linked its node (and moved the tail) or left the queue
// untouched with the node reclaimed.
package pqueue

import (
	"errors"
	"fmt"

	"pmwcas/internal/alloc"
	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

// Node layout: word0 = value, word1 = next (arena offset, 0 = none).
const (
	nodeValueOff = 0
	nodeNextOff  = 8
	nodeSize     = 64 // one cache line
)

// RootWords is the number of durable anchor words a queue needs: the
// head and tail anchors.
const RootWords = 2

var (
	// ErrEmpty is returned by Dequeue on an empty queue.
	ErrEmpty = errors.New("pqueue: empty")
	// ErrValueRange rejects values with reserved high bits.
	ErrValueRange = errors.New("pqueue: value out of range")
)

// Queue is a persistent lock-free FIFO of 61-bit values.
type Queue struct {
	dev   *nvram.Device
	pool  *core.Pool
	alloc *alloc.Allocator

	headAnchor nvram.Offset
	tailAnchor nvram.Offset
}

// Config wires a Queue to its substrates.
type Config struct {
	Pool      *core.Pool
	Allocator *alloc.Allocator
	// Roots is a durable region of at least RootWords words at a
	// layout-stable location.
	Roots nvram.Region
}

// New opens the queue anchored at cfg.Roots, creating the sentinel node
// on first use with one PMwCAS (core.Pool.OpenAnchors). After a crash,
// allocator and pool recovery must run before New; the queue itself has
// no recovery code.
func New(cfg Config) (*Queue, error) {
	if cfg.Pool == nil || cfg.Allocator == nil {
		return nil, errors.New("pqueue: Pool and Allocator are required")
	}
	if cfg.Pool.WordsPerDescriptor() < 2 {
		return nil, errors.New("pqueue: pool descriptors must hold >= 2 words")
	}
	if cfg.Roots.Len < RootWords*nvram.WordSize {
		return nil, fmt.Errorf("pqueue: roots region too small (%d bytes)", cfg.Roots.Len)
	}
	q := &Queue{
		dev:        cfg.Pool.Device(),
		pool:       cfg.Pool,
		alloc:      cfg.Allocator,
		headAnchor: cfg.Roots.Base,
		tailAnchor: cfg.Roots.Base + nvram.WordSize,
	}
	if _, err := cfg.Pool.OpenAnchors([]nvram.Offset{q.headAnchor, q.tailAnchor}, q.create); err != nil {
		return nil, fmt.Errorf("pqueue: %w", err)
	}
	return q, nil
}

// create builds the sentinel node and publishes it with one PMwCAS,
// {head: 0→S, tail: 0→S}. The sentinel is handed to the head anchor's
// entry, so the descriptor owns it until the PMwCAS commits: a lost race
// or a crash frees it (§5.2), and the anchors stay zero.
func (q *Queue) create(h *core.Handle) error {
	d, err := h.AllocateDescriptor(0)
	if err != nil {
		return err
	}
	// The sentinel holds no value and has no next.
	sentinel, err := q.alloc.NewHandle().Reserve(nodeSize)
	if err == nil {
		q.dev.Store(sentinel+nodeValueOff, 0)
		q.dev.Store(sentinel+nodeNextOff, 0)
		err = d.ReserveEntry(q.headAnchor, 0, sentinel, core.PolicyFreeNewOnFailure)
	}
	if err == nil {
		err = d.AddWord(q.tailAnchor, 0, sentinel)
	}
	if err != nil {
		d.Discard()
		return err
	}
	_, err = d.Execute()
	return err
}

// Handle is a per-goroutine queue context.
type Handle struct {
	q    *Queue
	core *core.Handle
	ah   *alloc.Handle
}

// NewHandle creates a per-goroutine handle.
func (q *Queue) NewHandle() *Handle {
	return &Handle{q: q, core: q.pool.NewHandle(), ah: q.alloc.NewHandle()}
}

// Enqueue appends value to the queue. One PMwCAS links the node and
// swings the tail together; on failure (a concurrent enqueue won) the
// reserved node is recycled by policy and the operation retries.
func (h *Handle) Enqueue(value uint64) error {
	if !core.IsClean(value) {
		return fmt.Errorf("%w: %#x", ErrValueRange, value)
	}
	q := h.q
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()
	for {
		tail := h.core.Read(q.tailAnchor)
		d, err := h.core.AllocateDescriptor(0)
		if err != nil {
			g.Exit()
			q.pool.ReclaimPause()
			g.Enter()
			continue
		}
		// The node is filled, then descriptor-owned until the link
		// commits (§5.2).
		node, err := h.ah.Reserve(nodeSize)
		if err == nil {
			q.dev.Store(node+nodeValueOff, value)
			q.dev.Store(node+nodeNextOff, 0)
			err = d.ReserveEntry(nvram.Offset(tail)+nodeNextOff, 0, node, core.PolicyFreeNewOnFailure)
		}
		if err == nil {
			err = d.AddWord(q.tailAnchor, tail, node)
		}
		if err != nil {
			d.Discard()
			return err
		}
		ok, err := d.Execute()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		// Lost to a concurrent enqueue; the node was recycled by policy.
	}
}

// Dequeue removes and returns the oldest value. The head anchor moves to
// the first real node (which becomes the new sentinel); the old sentinel
// is recycled through the FreeOldOnSuccess policy once the epoch allows.
func (h *Handle) Dequeue() (uint64, error) {
	q := h.q
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()
	for {
		sentinel := h.core.Read(q.headAnchor)
		first := h.core.Read(nvram.Offset(sentinel) + nodeNextOff)
		if first == 0 {
			return 0, ErrEmpty
		}
		value := h.core.Read(nvram.Offset(first) + nodeValueOff)
		d, err := h.core.AllocateDescriptor(0)
		if err != nil {
			g.Exit()
			q.pool.ReclaimPause()
			g.Enter()
			continue
		}
		if err := d.AddWordWithPolicy(q.headAnchor, sentinel, first, core.PolicyFreeOldOnSuccess); err != nil {
			d.Discard()
			return 0, err
		}
		ok, err := d.Execute()
		if err != nil {
			return 0, err
		}
		if ok {
			return value, nil
		}
		// Lost to a concurrent dequeue; retry on the new head.
	}
}

// Peek returns the oldest value without removing it.
func (h *Handle) Peek() (uint64, error) {
	q := h.q
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()
	sentinel := h.core.Read(q.headAnchor)
	first := h.core.Read(nvram.Offset(sentinel) + nodeNextOff)
	if first == 0 {
		return 0, ErrEmpty
	}
	return h.core.Read(nvram.Offset(first) + nodeValueOff), nil
}

// Len counts queued values. O(n); tests and tools.
func (h *Handle) Len() int {
	q := h.q
	g := h.core.Guard()
	g.Enter()
	defer g.Exit()
	n := 0
	cur := h.core.Read(q.headAnchor)
	for {
		next := h.core.Read(nvram.Offset(cur) + nodeNextOff)
		if next == 0 {
			return n
		}
		n++
		cur = next
	}
}

// Drain dequeues everything, returning the values in order.
func (h *Handle) Drain() ([]uint64, error) {
	var out []uint64
	for {
		v, err := h.Dequeue()
		if errors.Is(err, ErrEmpty) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
}
