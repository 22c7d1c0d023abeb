package queue

import (
	"sync/atomic"

	"scoopqs/internal/sched"
)

type mpscNode[T any] struct {
	next atomic.Pointer[mpscNode[T]]
	v    T
}

// MPSC is an unbounded multiple-producer single-consumer queue in the
// style of Vyukov's intrusive MPSC queue. Any number of goroutines may
// Enqueue; exactly one may TryDequeue. Producers never block and are
// wait-free apart from one atomic exchange. The consumer observes each
// producer's items in that producer's order (per-producer FIFO), which
// is exactly the guarantee the queue-of-queues needs.
//
// Nodes are recycled with the same Vyukov scheme the SPSC queue uses:
// consumed nodes stay linked in the chain, the consumer publishes its
// position (pos), and producers harvest nodes strictly behind it
// before allocating fresh ones. Because many producers race for the
// chain head, the harvest window is guarded by a spinlock taken with
// TryLock only — a producer that loses the race allocates instead of
// waiting, so the enqueue path stays non-blocking. In steady state
// (the reservation hot path: one enqueue, one dequeue) every enqueue
// reuses a node and allocates nothing.
//
// The zero value is not usable; use NewMPSC.
type MPSC[T any] struct {
	headP    atomic.Pointer[mpscNode[T]] // producers swap here (newest node)
	inflight atomic.Int64                // producers inside TryEnqueue
	closed   atomic.Bool

	// Producer-side free list: first is the oldest node not yet
	// reclaimed, fenced by the consumer's published position. reclaim
	// arbitrates the racing producers (TryLock only — never held while
	// waiting for anything).
	reclaim sched.SpinLock
	first   *mpscNode[T]

	// pos is the consumer's published chain position: every node
	// strictly before it has been consumed and may be reused.
	pos atomic.Pointer[mpscNode[T]]

	_     [32]byte     // separate the consumer's line from the producers'
	tailC *mpscNode[T] // consumer-owned: most recently consumed node
}

// NewMPSC returns an empty queue. The argument is ignored, as NewSPSC's.
func NewMPSC[T any](int) *MPSC[T] {
	stub := &mpscNode[T]{}
	q := &MPSC[T]{tailC: stub, first: stub}
	q.headP.Store(stub)
	q.pos.Store(stub)
	return q
}

// newNode returns a node holding v, harvesting the oldest consumed
// node when the consumer's published position has moved past it. A
// node equal to pos is never taken (the consumer may still read its
// next link), and a producer that cannot get the harvest lock
// allocates rather than spin.
func (q *MPSC[T]) newNode(v T) *mpscNode[T] {
	if q.reclaim.TryLock() {
		if nd := q.first; nd != q.pos.Load() {
			// nd is strictly behind the consumer: it has been consumed,
			// its next link is final, and the consumer will never touch
			// it again.
			q.first = nd.next.Load()
			q.reclaim.Unlock()
			nd.next.Store(nil)
			nd.v = v
			return nd
		}
		q.reclaim.Unlock()
	}
	return &mpscNode[T]{v: v}
}

// Enqueue appends v. Safe for concurrent use by many producers; never
// blocks. Enqueue on a closed queue panics.
func (q *MPSC[T]) Enqueue(v T) {
	if !q.TryEnqueue(v) {
		panic("queue: Enqueue on closed MPSC")
	}
}

// TryEnqueue appends v unless the queue is closed, in which case it
// reports false and leaves the queue untouched. An enqueue racing
// Close may still be accepted; Quiesced lets the consumer wait out
// such in-flight producers before treating the queue as finished, and
// a rejected producer whose consumer may be deciding whether to retire
// must wake it to look again.
func (q *MPSC[T]) TryEnqueue(v T) bool {
	q.inflight.Add(1)
	if q.closed.Load() {
		q.inflight.Add(-1)
		return false
	}
	n := q.newNode(v)
	prev := q.headP.Swap(n) // serialization point
	prev.next.Store(n)      // publish; the chain is briefly broken between these
	q.inflight.Add(-1)
	return true
}

// TryEnqueueNoNotify is TryEnqueue, under the name the benchmark's
// contended-MPSC rung calls.
func (q *MPSC[T]) TryEnqueueNoNotify(v T) bool { return q.TryEnqueue(v) }

// Close marks the end of the stream: TryEnqueue rejects from now on,
// and once the accepted items are drained Quiesced reports true. It
// wakes nobody. Any goroutine may call Close; it is idempotent.
func (q *MPSC[T]) Close() { q.closed.Store(true) }

// Closed reports whether Close has been called. A closed queue may
// still hold undrained items.
func (q *MPSC[T]) Closed() bool { return q.closed.Load() }

// Quiesced reports whether the queue is closed, has no producer
// mid-enqueue, and is empty — i.e. no item can ever appear again, so
// the consumer may retire. The check order matters: once closed is
// observed true, any producer whose in-flight mark we missed must
// itself observe closed and reject, and any producer that slipped an
// item in before our in-flight read has already published it, so the
// final emptiness check sees it.
func (q *MPSC[T]) Quiesced() bool {
	return q.closed.Load() && q.inflight.Load() == 0 && q.Empty()
}

// TryDequeue removes the head item without blocking. ok=false means the
// queue is momentarily empty, a producer is mid-enqueue, or the queue is
// closed and drained; use Quiesced to distinguish.
func (q *MPSC[T]) TryDequeue() (v T, ok bool) {
	tail := q.tailC
	next := tail.next.Load()
	if next == nil {
		if q.headP.Load() == tail {
			return v, false // truly empty
		}
		// A producer swapped headP but has not linked prev.next yet.
		// The link is one store away; spin for it.
		for i := 0; next == nil; i++ {
			sched.SpinWait(i)
			next = tail.next.Load()
		}
	}
	v = next.v
	var zero T
	next.v = zero
	q.tailC = next
	// Publish the new position; nodes strictly behind it are done and
	// may be harvested by producers.
	q.pos.Store(next)
	return v, true
}

// Empty reports whether the queue currently appears empty. Advisory
// only.
func (q *MPSC[T]) Empty() bool {
	tail := q.tailC
	return tail.next.Load() == nil && q.headP.Load() == tail
}
