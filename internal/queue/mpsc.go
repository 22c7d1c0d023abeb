package queue

import (
	"sync"
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
// Nodes are recycled Vyukov-style: consumed nodes stay linked in the
// chain, the consumer publishes its position (pos), and producers
// harvest nodes strictly behind it. Because many producers race for the
// chain head, the harvest window is guarded by a mutex taken with
// TryLock only — a producer that loses the race allocates its node
// instead of waiting, so the enqueue path stays non-blocking. A
// producer that holds the lock and finds nothing to harvest carves its
// node from a block, each block twice the last (2 up to 64 nodes). In
// steady state (the reservation hot path: one enqueue, one dequeue)
// every enqueue reuses a node, and a backlog — reservations running
// ahead of a handler held by another block — costs one allocation per
// block of nodes, not per node.
//
// A zero value is usable after Init; NewMPSC returns an initialized
// one.
type MPSC[T any] struct {
	headP    atomic.Pointer[mpscNode[T]] // producers swap here (newest node)
	inflight atomic.Int64                // producers inside TryEnqueue
	closed   atomic.Bool

	// Producer-side free list: first is the oldest node not yet
	// reclaimed, fenced by the consumer's published position. reclaim
	// arbitrates the racing producers (TryLock only — never held while
	// waiting for anything).
	reclaim sync.Mutex
	first   *mpscNode[T]

	// pos is the consumer's published chain position: every node
	// strictly before it has been consumed and may be reused.
	pos atomic.Pointer[mpscNode[T]]

	// blk holds the nodes not yet carved from the last block allocated,
	// taken from its end under reclaim; its capacity is that block's
	// size. With the pad after it, it keeps the 32 bytes that separate
	// the consumer's line from the producers'.
	blk   []mpscNode[T]
	_     [8]byte
	tailC *mpscNode[T] // consumer-owned: most recently consumed node

	// stub is the chain's first node. Once consumed it is harvested like
	// any other node.
	stub mpscNode[T]
}

// NewMPSC returns an empty queue. The argument is ignored, as NewSPSC's.
func NewMPSC[T any](int) *MPSC[T] {
	q := new(MPSC[T])
	q.Init()
	return q
}

// Init readies a zero queue in place, empty and open: the chain starts
// at the embedded stub. It must run before any other method, and at
// most once.
func (q *MPSC[T]) Init() {
	q.tailC, q.first = &q.stub, &q.stub
	q.headP.Store(&q.stub)
	q.pos.Store(&q.stub)
}

// newNode returns a node holding v, harvesting the oldest consumed
// node when the consumer's published position has moved past it, else
// carving one from the current block. A node equal to pos is never
// taken (the consumer may still read its next link), and a producer
// that cannot get the harvest lock allocates rather than spin.
func (q *MPSC[T]) newNode(v T) *mpscNode[T] {
	if !q.reclaim.TryLock() {
		return &mpscNode[T]{v: v}
	}
	nd := q.first
	if nd != q.pos.Load() {
		// nd is strictly behind the consumer: it has been consumed, its
		// next link is final, and the consumer will never touch it
		// again.
		q.first = nd.next.Load()
		q.reclaim.Unlock()
		nd.next.Store(nil)
	} else {
		if len(q.blk) == 0 {
			q.blk = make([]mpscNode[T], min(max(2*cap(q.blk), 2), 64))
		}
		nd = &q.blk[len(q.blk)-1]
		q.blk = q.blk[:len(q.blk)-1]
		q.reclaim.Unlock()
	}
	nd.v = v
	return nd
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
