package core

import (
	"fmt"
	"sync/atomic"

	"scoopqs/internal/future"
	"scoopqs/internal/obs"
	"scoopqs/internal/queue"
)

// HandlerError is the error recorded when a call or query executed on a
// handler panics. It poisons the session: subsequent calls in the same
// separate block are skipped, and the client observes the error at its
// next synchronization point (Sync, a query, or the end of the block).
type HandlerError struct {
	Handler string // handler name
	Value   any    // the recovered panic value
}

func (e *HandlerError) Error() string {
	return fmt.Sprintf("scoopqs: panic on handler %q: %v", e.Handler, e.Value)
}

type callKind uint8

const (
	callCall callKind = iota
	callAlways
	callSync // with the owner's query slot set, a packaged query (Fig. 10a)
	callEnd
	callWait
	callGuard
)

// call is a packaged request. The paper packages calls with libffi; in
// Go the closure is the package (heap allocation plus indirect call,
// the same cost shape). A packaged query rides its parked client's
// query slot (Client.query), not the record, which keeps every private
// queue slot at 24 bytes.
type call struct {
	kind callKind
	fn   func()
	// at is the obs enqueue stamp of an async call (callCall), written
	// only while recording is enabled; the handler measures the
	// log→execution latency from it. The SPSC queue's handoff orders
	// the accesses. A callWait carries its wait generation here instead.
	at int64
}

// querier is a packaged query: what a handler runs for a client parked
// in QueryRemote (Fig. 10a), for a future (CallFuture, QueryAsync) and
// for a guard it evaluates itself (waitRec). The result comes back
// boxed through any.
type querier interface{ query() any }

// queryFunc adapts a typed query closure to querier. A func value is
// pointer-shaped, so converting one to the interface allocates nothing:
// the caller's closure is the whole package.
type queryFunc[T any] func() T

func (f queryFunc[T]) query() any { return f() }

// waitRec is a client's wait-condition record: what the handlers of a
// waiting block need to start or wake the client later.
//
// A single-handler block under QoQ logs callGuard and parks: the handler
// evaluates guard itself and, while it is false, keeps the record filed.
// Client and handler never touch the record at the same time — the
// client writes it before logging callGuard and stays parked until the
// handler unparks it.
//
// Any other block evaluates its guard on the client. When it fails the
// client arms the record (gen becomes odd) before logging callWait(gen)
// on every session of the block; each of those handlers files the
// record, and the first to process an ordinary END afterwards fires it
// by moving gen on with a CompareAndSwap, so exactly one handler wakes
// the client, which reserves its block again itself, and the others
// drop their entry as stale.
// sessions is then written only while the record is disarmed and read
// only by the handler that won the CompareAndSwap, which orders the
// accesses.
type waitRec struct {
	gen      atomic.Int64
	sessions []*Session            // the waiting block's sessions, in handler-id order
	guard    func([]*Session) bool // callGuard only: the handler evaluates it
}

// query runs the record's guard as a query of the block's session
// (Handler.guardHolds); the record is the package, so evaluating a
// guard in place allocates nothing.
func (r *waitRec) query() any { return r.guard(r.sessions) }

// release wakes the record's parked client with nothing reserved, leaving
// sessions nil to say so. A client-evaluated guard always wakes like that
// and reserves afresh; a callGuard client otherwise wakes with its block
// started, and takes this for Shutdown (SeparateWhen). Only for the
// handler that holds the record: its evaluator, or the winner of the
// generation CompareAndSwap.
func (r *waitRec) release() {
	c := r.sessions[0].owner
	r.sessions = nil
	c.parker.Unpark()
}

// Session is a private queue: the communication channel between one
// client and one handler for the duration of one separate block (and,
// via the client's cache, across blocks). The client logs requests on
// it; the handler drains it. A Session is only valid inside the
// separate block that produced it and must not be shared between
// goroutines.
//
// A session is one allocation: its SPSC queue is embedded and makes its
// first ring only with the first request (TestFreshSessionAllocs), and
// the whole fills the 160-byte size class (TestHotStructSizes).
type Session struct {
	// errPub poisons the session after a handler-side panic, until the
	// handler reaches the block's END. Written only by the handler; read
	// by the client, hence atomic publication. The handler reads it for
	// every call, so it leads the queue's consumer fields, and the
	// fields the client reads or writes for every call follow the
	// queue's producer fields, a cache line away.
	errPub atomic.Pointer[HandlerError]

	q     queue.SPSC[call]
	h     *Handler
	owner *Client // the client this private queue belongs to

	// synced tracks whether the handler is known to be parked on this
	// private queue (dynamic sync coalescing, §3.4.1). Client-owned.
	synced bool
	inUse  bool

	// onHandler is set by the handler while it evaluates the owner's
	// guard on this session (callGuard): the code that normally runs on
	// the client is then running on the handler goroutine itself, so
	// syncs are no-ops and requests execute in place. Only written while
	// the owner is parked, and the park/unpark hand-off orders it.
	onHandler bool

	// next chains the owner's further sessions on h behind the one its
	// cache holds: those opened while every session before them was
	// mid-block or poisoned (Client.session). Client-owned.
	next *Session

	// one backs the session slice of a single-handler SeparateMany /
	// SeparateWhen block (reserveMany), which then allocates nothing.
	one [1]*Session
}

// Handler returns the handler this session is reserved on.
func (s *Session) Handler() *Handler { return s.h }

// log enqueues c on the private queue and wakes the handler, on the
// worker the client's code runs on when a handler hosts it (the
// local-push fast path). The queue wakes nobody itself. Whoever then
// waits for the answer calls log first (roundTrip): the wake may leave h
// in this worker's next slot, where a hosted client's syncInline runs
// it on the spot, and from where park's blockBegin hands it to another
// worker otherwise.
func (s *Session) log(c call) {
	s.q.Enqueue(c)
	s.h.wakeFrom(s.owner.curWorker())
}

// Call logs an asynchronous call on the handler (the call rule). It
// never blocks and returns immediately; fn will run on the handler
// after all previously logged requests of this session.
func (s *Session) Call(fn func()) { s.logCall(callCall, fn) }

// CallAlways logs an asynchronous call that runs even on a poisoned
// session, for a call that owns something it must give back whatever
// happened earlier in the block (the remote server's reply, request
// credit and payload; CallFuture's cell). fn tells a poisoned session
// by Err() != nil and skips its work then; a panic in fn poisons the
// session like a panicking Call.
func (s *Session) CallAlways(fn func()) { s.logCall(callAlways, fn) }

func (s *Session) logCall(kind callKind, fn func()) {
	s.owner.calls++
	if s.onHandler {
		// Logged by a guard the handler is evaluating: the handler must
		// not become a second producer of the private queue, and with
		// the queue empty and the client parked, in place is in order.
		s.h.execCall(s, kind, fn)
		return
	}
	s.synced = false // an async call desynchronizes the handler
	c := call{kind: kind, fn: fn}
	if obs.Enabled() {
		c.at = obs.Now()
	}
	s.log(c)
}

// Sync brings the handler to a quiescent point on this private queue:
// when Sync returns, every previously logged call has executed and the
// handler is parked waiting on this session. Under dynamic
// sync-coalescing the round-trip is skipped if the handler is already
// synced. Sync panics with *HandlerError if a previous call panicked.
func (s *Session) Sync() {
	rt := s.h.rt
	if rt.cfg.DynElide && s.synced {
		s.owner.syncsElided++
		if obs.Enabled() {
			obs.Emit(obs.KindSyncElide, uint64(s.h.id), 0)
		}
		return
	}
	s.SyncNow()
}

// SyncNow performs the sync round-trip unconditionally. It is the
// primitive the static sync-coalescing pass emits for the one sync it
// hoists out of a loop; application code normally wants Sync.
func (s *Session) SyncNow() {
	if s.onHandler {
		// A guard on the handler itself: nothing to wait for, and the
		// LocalQuery that statically hoisted code pairs with this is
		// legal (guardHolds takes the mark back).
		s.synced = true
		return
	}
	s.owner.syncsPerformed++
	s.roundTrip()
	s.checkErr()
}

// roundTrip logs callSync and waits until the handler has answered it —
// with the owner's query slot set, a packaged query, whose reply the
// handler leaves next to it. A handler-hosted owner first runs an idle
// handler's Step inline (syncInline), and parks only when that did not
// answer. The handler then loops back to dequeue on this same private
// queue, so s is synced.
func (s *Session) roundTrip() {
	c := s.owner
	c.flush()
	var t0 int64
	if obs.Enabled() {
		t0 = obs.Now()
	}
	if c.host != nil {
		c.waitingOn.Store(s.h)
	}
	// Log before syncInline and park's blockBegin (see log).
	s.log(call{kind: callSync})
	if !c.syncInline(s.h) {
		c.park()
	}
	if c.host != nil {
		c.waitingOn.Store(nil)
	}
	if t0 != 0 {
		d := obs.Now() - t0
		if c.query == nil {
			syncHist.Observe(d)
			obs.Emit(obs.KindSync, uint64(s.h.id), d)
		} else {
			queryHist.Observe(d)
			obs.Emit(obs.KindQuery, uint64(s.h.id), d)
		}
	}
	s.synced = true
}

// Synced reports whether the handler is known to be parked on this
// queue (i.e. a client-side query needs no round-trip).
func (s *Session) Synced() bool { return s.synced }

// queryRemote has the handler execute q and waits for the result (the
// original query rule, Fig. 10a). The owner's query slot carries q to
// the handler and the result back; the client stays parked until the
// answer, and clears the slot on waking, so it keeps neither q nor the
// result alive. A query that panicked or met a poisoned session poisons
// s, and checkErr re-raises it: the handler is pinned on s until the
// client's next request, so the poison cannot change in between.
func (s *Session) queryRemote(q querier) any {
	c := s.owner
	c.remoteQueries++
	if s.onHandler {
		return q.query() // a guard on the handler itself; its recover poisons the session
	}
	c.query = q
	s.roundTrip()
	v := c.replyVal
	c.query, c.replyVal = nil, nil
	s.checkErr()
	return v
}

// CallFuture logs an asynchronous query (the futures subsystem): qfn
// executes on the handler after all previously logged requests of this
// session, and its result resolves the returned future instead of
// being shipped back through a sync round-trip — the client never
// blocks. The future is one CallAlways (counted in AsyncCalls) that
// runs qfn as a query of the session: on a poisoned session qfn does
// not run and the future fails with the poison, and a panic in qfn
// fails it with *HandlerError and poisons the session exactly like a
// synchronous query. Whatever qfn returns is the future's value, a
// *future.Future included. The future resolves before its handler
// retires: a handler drains every request it accepted, so Shutdown
// never leaves one pending.
func (s *Session) CallFuture(qfn func() any) *future.Future {
	return s.callFuture(queryFunc[any](qfn))
}

// callFuture is CallFuture of a packaged query: the cell and the
// CallAlways closure are all it allocates.
func (s *Session) callFuture(q querier) *future.Future {
	s.h.rt.stats.futuresCreated.Add(1)
	fut := future.New()
	s.CallAlways(func() {
		if v, err := s.h.execQuery(s, q); err != nil {
			fut.Fail(err)
		} else {
			fut.Complete(v)
		}
	})
	return fut
}

// checkErr surfaces a handler-side panic to the client.
func (s *Session) checkErr() {
	if e := s.errPub.Load(); e != nil {
		panic(e)
	}
}

// Err returns the handler-side error recorded on this session, if any,
// without panicking. It is only guaranteed to observe errors from
// calls that happened before the client's last synchronization point.
func (s *Session) Err() error {
	if e := s.errPub.Load(); e != nil {
		return e
	}
	return nil
}

// end logs the END marker (the separate rule appends call(x, end)),
// releasing the handler to serve other clients. The owner's counts are
// flushed first, so a block counted in EndsProcessed is counted in full.
func (s *Session) end() {
	s.owner.flush()
	s.log(call{kind: callEnd})
	s.synced = false
	s.inUse = false
}

// endWaiting ends the block like end, but with the marker of a failed
// guard: the handler files the owner's wait record (armed at gen) and
// fires nobody.
func (s *Session) endWaiting(gen int64) {
	s.owner.flush()
	s.log(call{kind: callWait, at: gen})
	s.synced = false
	s.inUse = false
}

// Query executes a synchronous query and returns its result. Depending
// on the configuration this is either a packaged remote execution
// (None/QoQ), or a sync followed by client-side execution of f
// (Dynamic/Static/All; the modified query rule of §3.2). Under Dynamic
// the sync is elided when the handler is already synced; under a pure
// Static configuration every Query pays a sync, modelling the
// conservatism of static analysis on code it cannot prove regular —
// statically optimized code uses SyncNow + LocalQuery instead.
func Query[T any](s *Session, f func() T) T {
	rt := s.h.rt
	if rt.cfg.clientSideQuery() {
		s.Sync()
		s.owner.localQueries++
		v := f()
		s.checkErr()
		return v
	}
	return QueryRemote(s, f)
}

// QueryRemote always uses the packaged-call path of Fig. 10a: f is the
// package, shipped to the handler in the client's query slot (no second
// closure wraps it), executed there, and its result shipped back in the
// reply slot. The boxing of the result through any is deliberate: it
// models the encode/decode cost the optimized rule avoids. A nil
// interface result boxes to a nil any, and comes back as T's zero.
func QueryRemote[T any](s *Session, f func() T) T {
	v, _ := s.queryRemote(queryFunc[T](f)).(T)
	return v
}

// QueryAsync is the typed veneer over Session.CallFuture: it logs f as
// an asynchronous query and returns a future that resolves with f's
// (boxed) result, at a future's cost (f is the package, as for
// QueryRemote). Resolve it with Client.Await (shutdown-aware) or the
// future's own Get.
func QueryAsync[T any](s *Session, f func() T) *future.Future {
	return s.callFuture(queryFunc[T](f))
}

// LocalQuery executes f directly on the client with no synchronization.
// It is only legal when the handler is known to be synced on this
// session — either because the static sync-coalescing pass proved it
// (the generated pairing is SyncNow once, LocalQuery in the loop) or
// because the caller just invoked Sync. Misuse is a data race; when the
// session is not marked synced this panics to catch miscompiled code.
func LocalQuery[T any](s *Session, f func() T) T {
	if !s.synced {
		panic("scoopqs: LocalQuery on unsynced session (miscompiled static elision)")
	}
	s.owner.localQueries++
	return f()
}
