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
// non-intrusive queues. Producers never block. The consumer blocks
// when the queue is empty, after the polls its sched.WaitPolicy allows,
// and Close releases a blocked consumer: Dequeue then reports ok=false
// once the queue is drained, matching the paper's handler loop in which a
// false dequeue means "no more work / shut down", not "momentarily empty".
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
// Dequeue/TryDequeue. The zero value is not usable; use NewSPSC.
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
	head   *spscNode[T] // consumer-owned: most recently consumed node
	parker *sched.Parker
	closed atomic.Bool
	notify func() // set before use; replaces parker wakeups when non-nil

	// pos is the consumer's published chain position: every node
	// strictly before it has been consumed and may be reused.
	pos atomic.Pointer[spscNode[T]]

	_     [32]byte     // keep producer fields off the consumer's cache line
	tail  *spscNode[T] // producer-owned: last enqueued node
	first *spscNode[T] // producer-owned: oldest node not yet reclaimed
}

// NewSPSC returns an empty queue whose consumer waits as sched.Engaged:
// it is a handler inside a block. The argument, once a poll budget that
// every caller left at 0, is ignored.
func NewSPSC[T any](int) *SPSC[T] {
	stub := &spscNode[T]{}
	q := &SPSC[T]{head: stub, tail: stub, first: stub, parker: sched.NewParker()}
	q.pos.Store(stub)
	return q
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

// SetNotify installs a became-non-empty notification hook: every
// Enqueue (and Close) invokes fn instead of unparking a dedicated
// consumer, so an external scheduler can make the consumer runnable
// rather than waking a parked goroutine. The consumer must then poll
// with TryDequeue — blocking Dequeue would never be woken. SetNotify
// must be called before the queue is shared; fn must be non-blocking
// and safe to call spuriously.
func (q *SPSC[T]) SetNotify(fn func()) { q.notify = fn }

// wake signals the consumer after a state change.
func (q *SPSC[T]) wake() {
	if q.notify != nil {
		q.notify()
		return
	}
	q.parker.Unpark()
}

// Enqueue appends v. It never blocks. Enqueue after Close panics.
func (q *SPSC[T]) Enqueue(v T) {
	if q.closed.Load() {
		panic("queue: Enqueue on closed SPSC")
	}
	n := q.newNode(v)
	q.tail.next.Store(n) // publish
	q.tail = n
	q.wake()
}

// Close marks the end of the stream. The consumer drains remaining
// items and then Dequeue reports ok=false. Only the producer may call
// Close. Close is idempotent.
func (q *SPSC[T]) Close() {
	q.closed.Store(true)
	q.wake()
}

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

// Dequeue removes the head item, blocking while the queue is empty and
// open. ok=false means the queue is closed and fully drained.
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
		if !sched.Engaged.Poll(i) {
			q.parker.Park()
			i = 0
		}
	}
}

// Empty reports whether the queue currently has no items. Only advisory:
// a producer may be enqueueing concurrently.
func (q *SPSC[T]) Empty() bool {
	return q.head.next.Load() == nil
}
