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
// The SPSC is a chain of power-of-two rings reused in place, in the
// style of FastFlow's unbounded SPSC queue: each side publishes one
// count and reads the other's only when its cached copy runs out. The
// MPSC is a linked queue in the style of Vyukov's non-intrusive MPSC
// queue, which recycles its consumed nodes and carves fresh ones from
// blocks. Both are plain containers: they hold items and wake nobody.
// Producers never block. Consumers poll with TryDequeue, and whoever
// parks owns the wake-up: the producer that hands a parked consumer work
// wakes it after the enqueue (internal/core readies the handler,
// internal/actor unparks the mailbox's owner). Close marks the end of a
// stream; an MPSC consumer may retire once Quiesced reports that no
// item can ever appear again.
//
// A queue embedded by value in its owner (a core Session, Handler or an
// actor's Ref) adds no allocation of its own: Init readies a zero queue
// in place, and NewSPSC/NewMPSC are Init on a fresh one. An initialized
// queue must not be copied.
package queue

import (
	"sync/atomic"

	"scoopqs/internal/sched"
)

// An SPSC's rings grow from firstRing slots, doubling each time the
// producer finds its ring still full, up to maxRing slots.
const (
	firstRing = 4
	maxRing   = 256
)

// ring is one circular buffer of an SPSC's chain. Item number n of the
// queue (counting from 0) lives in slot (n−base) & (len(slots)−1) of the
// ring whose items start at count base.
type ring[T any] struct {
	// next is the ring the producer moved on to: the items from
	// next.base on are there. Written once by the producer, and cleared
	// by the consumer when it leaves this ring.
	next  atomic.Pointer[ring[T]]
	base  uint64
	slots []T
}

// smallRing is a first ring with its slots inline: one allocation.
type smallRing[T any] struct {
	ring[T]
	a [firstRing]T
}

func newRing[T any](size int) *ring[T] {
	if size == firstRing {
		r := new(smallRing[T])
		r.slots = r.a[:]
		return &r.ring
	}
	return &ring[T]{slots: make([]T, size)}
}

// SPSC is an unbounded single-producer single-consumer queue.
// Exactly one goroutine may call Enqueue/Close and exactly one may call
// Dequeue/TryDequeue/Empty. A zero value is usable after Init; NewSPSC
// returns an initialized one.
//
// The queue is a chain of rings. The producer writes its item into the
// current ring and publishes its total count (pub) with one atomic
// store; it reads the consumer's count (cpub) only when the room it
// last computed runs out, and a ring still full after that read links
// a ring twice its size (from 4 up to 256 slots). The consumer reads
// the producer's count only when it has caught up with its cached copy,
// zeroes each slot it takes, and publishes its count when it catches up
// or every half ring. A ring is reused in place for as long as the
// consumer keeps within it of the producer, so a queue whose backlog
// fits its ring allocates nothing past the first Enqueue, which makes
// the first ring (4 slots inline). A ring the consumer leaves is
// unlinked, and a full-size one is handed back through spare, which the
// producer takes before it allocates: the queue holds no more than its
// backlog needs, plus one spare ring.
type SPSC[T any] struct {
	// Consumer-owned: its ring, its count (items taken), the count it may
	// take up to without reading pub, and its published count.
	cr     *ring[T]
	cn     uint64
	climit uint64
	cpub   atomic.Uint64

	// Cold fields: first hands the producer's first ring to the consumer,
	// spare a drained full-size ring back to the producer.
	first atomic.Pointer[ring[T]]
	spare atomic.Pointer[ring[T]]

	// The padding keeps the producer's fields off the consumer's cache
	// line: pub starts at least 64 bytes after cpub, whatever T and
	// wherever the queue starts (TestSPSCFieldSplit).
	_ [36]byte

	// Producer-owned: closed, which it reads for every item and the
	// consumer only once it finds the queue empty, its published count
	// (items enqueued), its ring and the count it may reach before it
	// reads cpub again.
	closed atomic.Bool
	pub    atomic.Uint64
	pr     *ring[T]
	plimit uint64
}

// NewSPSC returns an empty queue. The argument, once a poll budget that
// every caller left at 0, is ignored.
func NewSPSC[T any](int) *SPSC[T] {
	q := new(SPSC[T])
	q.Init()
	return q
}

// Init readies a zero queue in place, empty and open, as MPSC.Init does.
// A zero SPSC already is both, so Init allocates nothing: the first
// Enqueue makes the first ring.
func (q *SPSC[T]) Init() {}

// Enqueue appends v. It never blocks. Enqueue after Close panics.
func (q *SPSC[T]) Enqueue(v T) {
	if q.closed.Load() {
		panic("queue: Enqueue on closed SPSC")
	}
	n := q.pub.Load() // only this goroutine stores it
	if n == q.plimit {
		q.makeRoom(n)
	}
	r := q.pr
	r.slots[(n-r.base)&uint64(len(r.slots)-1)] = v
	q.pub.Store(n + 1) // publish
}

// makeRoom readies a slot for item n once the producer's cached room has
// run out: the first ring, room freed by the consumer in the current
// ring, or a larger ring linked behind it. Producer only.
func (q *SPSC[T]) makeRoom(n uint64) {
	r := q.pr
	if r == nil {
		r = newRing[T](firstRing)
		q.pr, q.plimit = r, firstRing
		q.first.Store(r)
		return
	}
	if lim := q.cpub.Load() + uint64(len(r.slots)); lim > n {
		q.plimit = lim
		return
	}
	nr := q.spare.Swap(nil)
	if nr == nil {
		nr = newRing[T](min(2*len(r.slots), maxRing))
	}
	nr.base = n
	q.pr, q.plimit = nr, n+uint64(len(nr.slots))
	r.next.Store(nr) // every item before n is already published
}

// Close marks the end of the stream for Dequeue, which reports ok=false
// once the remaining items are drained. It wakes nobody. Only the
// producer may call Close. Close is idempotent.
func (q *SPSC[T]) Close() { q.closed.Store(true) }

// TryDequeue removes the head item without blocking. ok is false if the
// queue is momentarily empty or closed-and-drained.
func (q *SPSC[T]) TryDequeue() (v T, ok bool) {
	if q.cn == q.climit && !q.refill() {
		return v, false
	}
	r := q.cr
	mask := uint64(len(r.slots) - 1)
	i := (q.cn - r.base) & mask
	v = r.slots[i]
	var zero T
	r.slots[i] = zero // the queue must not keep a dequeued item alive
	q.cn++
	if q.cn == q.climit || (q.cn-r.base)&(mask>>1) == 0 {
		q.cpub.Store(q.cn)
	}
	return v, true
}

// refill reads the producer's count once the consumer has caught up with
// its cached copy, and moves on to the next ring once the current one is
// drained. It reports whether an item is ready, and writes nothing when
// none is. Consumer only.
func (q *SPSC[T]) refill() bool {
	p := q.pub.Load()
	if p == q.cn {
		return false
	}
	r := q.cr
	if r == nil {
		r = q.first.Load() // stored before the first item was published
		q.first.Store(nil)
		q.cr = r
	}
	for {
		// pub was read before next: with no next ring, every item pub
		// counts is in r.
		nx := r.next.Load()
		switch {
		case nx == nil:
			q.climit = p
			return true
		case q.cn < nx.base:
			// Every item before nx.base was published before the link.
			q.climit = nx.base
			return true
		}
		// r is drained and the producer has moved on: unlink it, so the
		// chain does not keep it alive, and hand a full-size ring back.
		r.next.Store(nil)
		if len(r.slots) == maxRing {
			q.spare.Store(r)
		}
		r = nx
		q.cr = r
	}
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

// Empty reports whether the queue currently has no items. Consumer
// only, and advisory: the producer may be enqueueing concurrently.
func (q *SPSC[T]) Empty() bool {
	return q.cn == q.pub.Load()
}
