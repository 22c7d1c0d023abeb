// Package sched provides the low-level scheduling primitives used by the
// SCOOP/Qs runtime: a Parker, the WaitPolicy a consumer polls under
// first, the M:N Executor that drives every handler on a pool (with its
// fork-join TaskGroup), and a spin-lock for atomic multi-handler
// reservation. A handler itself never parks: it holds a worker only
// while it has work.
//
// The runtime waits in two ways. A Parker is what a client waits on,
// one answer at a time (a sync, a packaged query, the start of its
// guarded block), and what an actor waits on for mail; its waker
// unparks it after handing it work, since the queues wake nobody. Every
// other waiter — an idle pool worker, a parked fork-join join, a
// connection's producer at its writer's byte budget, an admission at
// zero credits — waits on a sync.Cond over the mutex guarding the
// state it waits for.
//
// The paper's runtime is built on three layers: task switching,
// lightweight threads, and handlers. In this reproduction the Executor
// switches handlers on a few pool workers, goroutines the Go scheduler
// runs beside the clients' own; Parker supplies the blocking/handoff
// edge between a client and the handlers it waits on. Handing a parked
// goroutine a token through a buffered channel approximates the paper's
// direct handler-to-client control transfer after a sync: the Go
// runtime readies exactly the waiting goroutine without a global
// scheduler pass.
package sched

import (
	"runtime"
	"sync/atomic"
)

// Parker state values.
const (
	pIdle int32 = iota
	pParked
	pNotified
)

// WaitPolicy is how many times in a row a consumer polls an empty queue
// before it blocks: the one place the runtime spins for work.
type WaitPolicy int

const (
	// Engaged is for a handler inside a block, whose client owes the next
	// request: a query's round trip is shorter than a park/unpark cycle.
	Engaged WaitPolicy = 64
	// Idle is for a consumer nobody owes work, such as an actor on its
	// mailbox: only SpinWait's busy polls, then Park, which is itself the
	// yield.
	Idle WaitPolicy = 8
)

var yield = runtime.Gosched // a variable so that tests can count the calls

// Poll makes the i-th consecutive empty poll (from 0) of a wait under p,
// or reports false: the budget is spent, block and count again from 0.
func (p WaitPolicy) Poll(i int) bool {
	if i >= int(p) {
		return false
	}
	SpinWait(i)
	return true
}

// Parker blocks a single goroutine until another goroutine unparks it.
// It is the moral equivalent of a binary semaphore with a fast path:
// an Unpark that arrives before Park makes the next Park return
// immediately; otherwise Park blocks at once, it never spins. Exactly one
// goroutine may call Park; any number may call Unpark.
//
// The zero value is not usable; use NewParker.
type Parker struct {
	state atomic.Int32
	ch    chan struct{}
}

// NewParker returns a ready-to-use Parker.
func NewParker() *Parker {
	return &Parker{ch: make(chan struct{}, 1)}
}

// Park blocks until Unpark is called. If an Unpark already happened
// since the last Park, it returns immediately, consuming the
// notification.
func (p *Parker) Park() {
	for {
		switch p.state.Load() {
		case pNotified:
			p.state.Store(pIdle)
			return
		case pIdle:
			if p.state.CompareAndSwap(pIdle, pParked) {
				<-p.ch
				p.state.Store(pIdle)
				return
			}
		default:
			panic("sched: concurrent Park on the same Parker")
		}
	}
}

// Unpark wakes the goroutine blocked in Park, or arranges for the next
// Park to return immediately. Multiple Unparks between Parks coalesce
// into one notification.
func (p *Parker) Unpark() {
	for {
		switch s := p.state.Load(); s {
		case pNotified:
			return
		case pIdle:
			if p.state.CompareAndSwap(pIdle, pNotified) {
				return
			}
		case pParked:
			if p.state.CompareAndSwap(pParked, pNotified) {
				p.ch <- struct{}{}
				return
			}
		}
	}
}

// SpinWait performs one iteration of polite spinning: the first calls
// are plain busy loops, later ones yield the processor. i is the
// caller's current spin count.
func SpinWait(i int) {
	if i < int(Idle) {
		return // pure spin: the producer is probably mid-store
	}
	yield()
}

// SpinLock is a test-and-set spin lock with exponential politeness. The
// paper's multi-reservation implementation uses "one spinlock for every
// handler to maintain the ordering guarantees"; this is that spinlock.
// The zero value is an unlocked SpinLock.
type SpinLock struct {
	v atomic.Int32
}

// Lock acquires the lock, spinning and then yielding until available.
func (l *SpinLock) Lock() {
	for i := 0; ; i++ {
		if l.v.Load() == 0 && l.v.CompareAndSwap(0, 1) {
			return
		}
		SpinWait(i)
	}
}

// TryLock attempts to acquire the lock without blocking.
func (l *SpinLock) TryLock() bool {
	return l.v.Load() == 0 && l.v.CompareAndSwap(0, 1)
}

// Unlock releases the lock. Unlocking an unlocked SpinLock panics.
func (l *SpinLock) Unlock() {
	if l.v.Swap(0) != 1 {
		panic("sched: Unlock of unlocked SpinLock")
	}
}
