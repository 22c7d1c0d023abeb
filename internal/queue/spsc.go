// Package queue implements the two specialized lock-free queues the
// SCOOP/Qs runtime is built from (§3.1 of the paper):
//
//   - SPSC: a single-producer single-consumer unbounded queue used as
//     the private queue between one client and one handler. The client
//     enqueues calls; the handler dequeues and executes them.
//   - MPSC: a multiple-producer single-consumer unbounded queue used as
//     the queue-of-queues. Many clients enqueue their private queues;
//     only the owning handler dequeues.
//
// Both queues are unbounded linked queues in the style of Vyukov's
// non-intrusive queues, and both are plain containers: they hold items
// and wake nobody. Producers never block. Consumers poll with
// TryDequeue, and whoever parks owns the wake-up: the producer that
// hands a parked consumer work wakes it after the enqueue (internal/core
// readies the handler, internal/actor unparks the mailbox's owner).
// Close marks the end of a stream; an MPSC consumer may retire once
// Quiesced reports that no item can ever appear again.
//
// Each queue embeds its stub node, so a queue embedded by value in its
// owner (a core Session, Handler or an actor's Ref) adds no allocation
// of its own: Init readies a zero queue in place, and NewSPSC/NewMPSC
// are Init on a fresh one. An initialized queue must not be copied.
package queue

import (
	"sync/atomic"

	"scoopqs/internal/sched"
)

type spscNode[T any] struct {
	next atomic.Pointer[spscNode[T]]
	v    T
}

// SPSC is an unbounded single-producer single-consumer queue.
// Exactly one goroutine may call Enqueue/Close and exactly one may call
// Dequeue/TryDequeue. A zero value is usable after Init; NewSPSC
// returns an initialized one.
//
// Nodes are recycled Vyukov-style with no side structure at all:
// consumed nodes stay linked in the chain, the consumer publishes its
// position (pos), and the producer harvests everything strictly behind
// it before allocating fresh nodes. The request hot path is therefore
// allocation-free in steady state — one atomic load decides reuse — at
// the cost of retaining nodes up to the queue's backlog high-water
// mark (the node-level version of the paper's "cache of queues";
// queues here are per-session and die with their client's cache).
type SPSC[T any] struct {
	head *spscNode[T] // consumer-owned: most recently consumed node

	// pos is the consumer's published chain position: every node
	// strictly before it has been consumed and may be reused.
	pos    atomic.Pointer[spscNode[T]]
	closed atomic.Bool

	// The padding and the stub keep the producer's fields off the
	// consumer's cache line: tail starts at least 64 bytes after pos,
	// whatever T and wherever the queue starts (TestSPSCFieldSplit).
	// stub is the chain's first node; once consumed it is recycled like
	// any other node.
	_    [32]byte
	stub spscNode[T]

	tail  *spscNode[T] // producer-owned: last enqueued node
	first *spscNode[T] // producer-owned: oldest node not yet reclaimed
}

// NewSPSC returns an empty queue. The argument, once a poll budget that
// every caller left at 0, is ignored.
func NewSPSC[T any](int) *SPSC[T] {
	q := new(SPSC[T])
	q.Init()
	return q
}

// Init readies a zero queue in place, empty and open: the chain starts
// at the embedded stub. It must run before any other method, and at
// most once.
func (q *SPSC[T]) Init() {
	q.head, q.tail, q.first = &q.stub, &q.stub, &q.stub
	q.pos.Store(&q.stub)
}

// newNode returns a node holding v, reusing the oldest consumed node
// when the consumer's published position has moved past it. Producer
// only.
func (q *SPSC[T]) newNode(v T) *spscNode[T] {
	if nd := q.first; nd != q.pos.Load() {
		// nd is strictly behind the consumer: reclaim it. Its next link
		// is non-nil (the chain continues at least to pos).
		q.first = nd.next.Load()
		nd.next.Store(nil)
		nd.v = v
		return nd
	}
	return &spscNode[T]{v: v}
}

// Enqueue appends v. It never blocks. Enqueue after Close panics.
func (q *SPSC[T]) Enqueue(v T) {
	if q.closed.Load() {
		panic("queue: Enqueue on closed SPSC")
	}
	n := q.newNode(v)
	q.tail.next.Store(n) // publish
	q.tail = n
}

// Close marks the end of the stream for Dequeue, which reports ok=false
// once the remaining items are drained. It wakes nobody. Only the
// producer may call Close. Close is idempotent.
func (q *SPSC[T]) Close() { q.closed.Store(true) }

// TryDequeue removes the head item without blocking. ok is false if the
// queue is momentarily empty or closed-and-drained.
func (q *SPSC[T]) TryDequeue() (v T, ok bool) {
	next := q.head.next.Load()
	if next == nil {
		return v, false
	}
	v = next.v
	var zero T
	next.v = zero
	q.head = next
	// Publish the new position; the old head is now strictly behind it
	// and the producer may reclaim it.
	q.pos.Store(next)
	return v, true
}

// Dequeue removes the head item, polling while the queue is empty and
// open: SpinWait's busy polls, then a yield per poll. It never parks.
// ok=false means the queue is closed and fully drained.
func (q *SPSC[T]) Dequeue() (v T, ok bool) {
	for i := 0; ; i++ {
		if v, ok = q.TryDequeue(); ok {
			return v, true
		}
		if q.closed.Load() {
			// Re-check after observing closed: the producer may have
			// enqueued right before closing.
			return q.TryDequeue()
		}
		sched.SpinWait(i)
	}
}

// Empty reports whether the queue currently has no items. Only advisory:
// a producer may be enqueueing concurrently.
func (q *SPSC[T]) Empty() bool {
	return q.head.next.Load() == nil
}
