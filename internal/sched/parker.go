// Package sched provides the low-level scheduling primitives used by the
// SCOOP/Qs runtime: a Parker, the WaitPolicy a consumer polls under
// first, the M:N Executor that drives every handler on a pool, and the
// parallel skeletons that share it. A handler itself never parks: it
// holds a worker only while it has work.
//
// The runtime waits in two ways. A Parker is what a client waits on,
// one answer at a time (a sync, a packaged query, the start of its
// guarded block), and what an actor waits on for mail; its waker
// unparks it after handing it work, since the queues wake nobody. Every
// other waiter — an idle pool worker, a parallel skeleton's caller
// waiting for its last chunks, a connection's producer at its writer's
// byte budget, an admission at zero credits — waits on a sync.Cond over
// the mutex guarding the state it waits for.
//
// The paper's runtime is built on three layers: task switching,
// lightweight threads, and handlers. In this reproduction the Executor
// switches handlers on a few pool workers, goroutines the Go scheduler
// runs beside the clients' own; Parker supplies the blocking/handoff
// edge between a client and the handlers it waits on. Handing a parked
// goroutine a token through a buffered channel approximates the paper's
// direct handler-to-client control transfer after a sync: the Go
// runtime readies exactly the waiting goroutine without a global
// scheduler pass. A client that runs on a pool worker itself (handler
// code) comes closer still: when the handler it syncs on waits in its
// own worker's next slot, it takes it back (Executor.ClaimNext) and runs
// the handler's Step on its own goroutine; the Step's Unpark leaves the
// token, which the client takes with TryPark: no goroutine switch at all.
// Under dynamic sync coalescing any client skips the Parker once the
// handler has answered a sync of its block: the handler, waiting
// engaged for the next request, lends the client its session, and the
// client runs its next sync or packaged query itself, with neither a
// park nor a hand-off; it parks only when the handler has not lent it.
package sched

import "runtime"

// WaitPolicy is how many times in a row a consumer polls an empty queue
// before it blocks: the one place the runtime spins for work.
type WaitPolicy int

const (
	// Engaged is for a handler inside a block, whose client owes the next
	// request: a query's round trip is shorter than a park/unpark cycle.
	// Not for a handler its own client runs inline (core's inline sync):
	// that client logs nothing until the handler's Step returns, so the
	// Step polls once and idles. After a sync, under dynamic coalescing,
	// core's handler lends its session to the client for this wait: the
	// client's round trips then run on the client, and each claim or
	// hand-back the handler sees restarts the wait at its yielding polls.
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

// Parker blocks one goroutine until another unparks it: a channel of
// one token. An Unpark that arrives before Park makes the next Park
// return at once, and Unparks between two Parks coalesce into one
// token; Park never spins. Only the Parker's owner parks — a Client is
// one goroutine, and so is an actor's receive loop — while any number
// of goroutines may Unpark.
//
// A zero value is usable after Init, so a Parker may live by value in
// its owner (a core Client, an actor's Ref); NewParker returns an
// initialized one.
type Parker struct {
	ch chan struct{}
}

// NewParker returns a ready-to-use Parker.
func NewParker() *Parker {
	p := new(Parker)
	p.Init()
	return p
}

// Init readies a zero Parker in place: no token pending. It must run
// before the first Park or Unpark, and at most once.
func (p *Parker) Init() { p.ch = make(chan struct{}, 1) }

// Park blocks until Unpark is called. If an Unpark already happened
// since the last Park, it returns immediately, consuming the token.
func (p *Parker) Park() { <-p.ch }

// TryPark consumes a pending Unpark and reports whether there was one;
// it never blocks.
func (p *Parker) TryPark() bool {
	select {
	case <-p.ch:
		return true
	default:
		return false
	}
}

// Unpark wakes the goroutine blocked in Park, or arranges for the next
// Park to return immediately. It never blocks: a token already pending
// absorbs it.
func (p *Parker) Unpark() {
	select {
	case p.ch <- struct{}{}:
	default:
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
