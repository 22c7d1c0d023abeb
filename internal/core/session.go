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
	callSync // with qfn, a packaged query (Fig. 10a)
	callFuture
	callEnd
	callWait
	callGuard
)

// call is a packaged request. The paper packages calls with libffi; in
// Go the closure is the package (heap allocation plus indirect call,
// the same cost shape).
type call struct {
	kind callKind
	fn   func()
	qfn  func() any
	fut  *future.Future // callFuture: the cell qfn's result resolves
	// at is the obs enqueue stamp of an async call (callCall), written
	// only while recording is enabled; the handler measures the
	// log→execution latency from it. The SPSC queue's handoff orders
	// the accesses. A callWait carries its wait generation here instead.
	at int64
}

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
type Session struct {
	h     *Handler
	owner *Client // the client this private queue belongs to
	q     *queue.SPSC[call]

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
	// With it Session fills the 64-byte size class (TestHotStructSizes).
	one [1]*Session

	// errPub poisons the session after a handler-side panic, until the
	// handler reaches the block's END. Written only by the handler; read
	// by the client, hence atomic publication.
	errPub atomic.Pointer[HandlerError]
}

// Handler returns the handler this session is reserved on.
func (s *Session) Handler() *Handler { return s.h }

// log enqueues c on the private queue and wakes the handler, on the
// worker the client's code runs on when a handler hosts it (the
// local-push fast path). The queue wakes nobody itself. Whoever then
// parks for the answer calls log before blockBegin (roundTrip): the
// wake may leave h on this worker's own deque, and it is blockBegin
// that rouses a worker to steal it.
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
// credit and payload). fn tells a poisoned session by Err() != nil and
// skips its work then; a panic in fn poisons the session like a
// panicking Call.
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
	s.h.rt.stats.syncsPerformed.Add(1)
	s.roundTrip(nil)
	s.checkErr()
}

// roundTrip logs callSync — with qfn, a packaged query, whose reply the
// handler leaves in the owner's slot — and parks the owner until the
// handler has answered it. The handler then loops back to dequeue on
// this same private queue, so s is synced.
func (s *Session) roundTrip(qfn func() any) {
	c := s.owner
	c.flush()
	var t0 int64
	if obs.Enabled() {
		t0 = obs.Now()
	}
	if c.host != nil {
		c.waitingOn.Store(s.h)
	}
	// Log before park's blockBegin (see log).
	s.log(call{kind: callSync, qfn: qfn})
	c.park()
	if c.host != nil {
		c.waitingOn.Store(nil)
	}
	if t0 != 0 {
		d := obs.Now() - t0
		if qfn == nil {
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

// queryRemote packages qfn, has the handler execute it, and waits for
// the result (the original query rule, Fig. 10a).
func (s *Session) queryRemote(qfn func() any) any {
	s.h.rt.stats.remoteQueries.Add(1)
	if s.onHandler {
		return qfn() // a guard on the handler itself; its recover poisons the session
	}
	s.roundTrip(qfn)
	c := s.owner
	v, err := c.replyVal, c.replyErr
	c.replyVal, c.replyErr = nil, nil
	if err != nil {
		panic(err)
	}
	return v
}

// CallFuture logs an asynchronous query (the futures subsystem): qfn
// executes on the handler after all previously logged requests of this
// session, and its result resolves the returned future instead of
// being shipped back through a sync round-trip — the client never
// blocks. A handler-side panic fails the future with *HandlerError and
// poisons the session exactly like a synchronous query. Whatever qfn
// returns is the future's value, a *future.Future included. The future
// resolves before its handler retires: a handler drains every request
// it accepted, so Shutdown never leaves one pending.
func (s *Session) CallFuture(qfn func() any) *future.Future {
	s.h.rt.stats.futuresCreated.Add(1)
	fut := future.New()
	if s.onHandler { // see Call
		v, err := s.h.execQuery(s, qfn)
		resolveFuture(fut, v, err)
		return fut
	}
	// The handler executes qfn and moves on without parking at the
	// client's disposal, so the session is not synced afterwards.
	s.synced = false
	s.log(call{kind: callFuture, qfn: qfn, fut: fut})
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

// QueryRemote always uses the packaged-call path of Fig. 10a: the
// closure is boxed, shipped to the handler, executed there, and the
// result shipped back. The boxing through any is deliberate: it models
// the encode/decode cost the optimized rule avoids.
func QueryRemote[T any](s *Session, f func() T) T {
	v := s.queryRemote(func() any { return f() })
	return v.(T)
}

// QueryAsync is the typed veneer over Session.CallFuture: it logs f as
// an asynchronous query and returns a future that resolves with f's
// (boxed) result. Resolve it with Client.Await (shutdown-aware) or the
// future's own Get.
func QueryAsync[T any](s *Session, f func() T) *future.Future {
	return s.CallFuture(func() any { return f() })
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
