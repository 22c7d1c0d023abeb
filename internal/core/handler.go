package core

import (
	"sync"
	"sync/atomic"

	"scoopqs/internal/obs"
	"scoopqs/internal/queue"
	"scoopqs/internal/sched"
)

// Handler is a SCOOP handler: an active object that executes the
// requests logged on it, one private queue at a time (the run and end
// rules of the paper's Fig. 3). State owned by a handler must only be
// touched from calls and queries executed through that handler.
//
// A handler is one resumable state machine (the h* states; Step, drain,
// wakeFrom) that the runtime's worker pool drives: it occupies a worker
// only while it has work.
type Handler struct {
	rt   *Runtime
	id   int64
	name string

	// qoq is the queue-of-queues: private queues are enqueued by
	// clients at reservation time and dequeued by drain. In lock-based
	// mode it holds at most one live session because resMu serializes
	// blocks. Embedded, stub node and all, like task: a handler is one
	// allocation (TestNewHandlerAllocs), and the queue carves its further
	// nodes in blocks from the first reservation on.
	qoq queue.MPSC[*Session]

	// Scheduling state (see the h* constants). cur is the session pinned
	// mid-drain, owned by whichever goroutine holds the hRunning state;
	// the wake/Step protocol guarantees exclusive, happens-before-ordered
	// access. While the client of a lent session has claimed it
	// (Session.claim), that client owns what cur guards instead, and a
	// Step leaves all of it alone until the client hands the session
	// back. task is the handler's scheduling token on the pool, bound
	// once so wakes never heap-allocate. onWorker is the pool worker
	// currently executing Step; it is only read by code running on this
	// handler (the same goroutine), which is what lets a handler's own
	// enqueues take the executor's next-slot fast path. It is nil while
	// the pinned session is lent (spinLent): code its client then runs
	// for h runs on the client's goroutine, and must push into no
	// worker's slot.
	state    atomic.Int32
	cur      *Session
	task     sched.Task
	onWorker *sched.Worker

	// spun is set when spinForWork has spent its engaged budget and
	// cleared when the next request runs: one idle wait spends the
	// budget at most once, however many wakes (another client's
	// reservation, say) force re-passes over the pinned session. Owned
	// like cur, and stored only when it changes, so the request path
	// does not write next to the state word that wakers CAS.
	spun bool

	// lends is set when h answers a sync of the pinned block under
	// DynElide, and cleared at the block's END: only such a block's
	// engaged wait lends its session (spinLent). Owned like cur.
	lends bool

	// depth is how many Steps the running one is nested in on its
	// goroutine: 0 when a worker's loop dispatched it, one more than its
	// caller's when a client hosted by a running handler ran it inline
	// (Client.syncInline). Owned like cur, and written as each Step
	// starts holding its pinned session. An int32, so it fits the
	// padding after spun and lends: Handler stays in the 240-byte size
	// class (TestHotStructSizes).
	depth int32

	// resMu is the handler's reservation lock. Under Config.QoQ it is
	// held only while a multi-handler reservation enqueues its group,
	// which makes the group atomic (§3.3); in lock-based mode it is the
	// handler lock of the original SCOOP semantics (Fig. 2), held by a
	// client for its whole separate block.
	resMu sync.Mutex

	// waiters files the clients whose guard on this handler failed, until
	// an ordinary END starts or fires them. Owned like cur: no lock.
	waiters []waiter

	// selfClient supports handlers acting as clients of other handlers
	// from within their own calls (e.g. a thread-ring hop). Lazily
	// created; only ever used from code executing on this handler.
	// selfClientPub publishes it for the deadlock detector.
	selfClient    *Client
	selfClientPub atomic.Pointer[Client]
}

// Handler states. A handler is hIdle when it has no known work,
// hRunning from the wake that hands it to the pool (ready) until it
// idles again — queued and draining alike — hRunningDirty when a wake
// arrived in that time (forcing one more pass before idling), and hDone
// once its queue-of-queues is closed and drained.
const (
	hIdle int32 = iota
	hRunning
	hRunningDirty
	hDone
)

// waiter is a filed wait record and the generation it was armed at, zero
// when the handler evaluates the guard itself (callGuard).
type waiter struct {
	rec *waitRec
	gen int64
}

// NewHandler creates a handler, idle until a client gives it work: no
// goroutine, and off the pool's ready queue.
func (rt *Runtime) NewHandler(name string) *Handler {
	rt.mu.Lock()
	if rt.down {
		rt.mu.Unlock()
		panic("scoopqs: NewHandler after Shutdown")
	}
	rt.nextID++
	h := &Handler{
		rt:   rt,
		id:   rt.nextID,
		name: name,
	}
	h.qoq.Init()
	h.task.Init(h)
	rt.handlers = append(rt.handlers, h)
	rt.wg.Add(1)
	rt.mu.Unlock()
	return h
}

// Name returns the handler's diagnostic name.
func (h *Handler) Name() string { return h.name }

// ID returns the handler's unique id within its runtime. IDs define
// the global acquisition order used for multi-handler reservations.
func (h *Handler) ID() int64 { return h.id }

// AsClient returns a Client context usable from code executing on this
// handler (i.e. inside a Call or query). It lets a handler log requests
// on other handlers, the "delegation" pattern of the paper's related
// work discussion. It must not be used from any other goroutine.
func (h *Handler) AsClient() *Client {
	if h.selfClient == nil {
		h.selfClient = h.rt.NewClient()
		// This client's code runs on executor workers; its blocking
		// operations must notify the pool so replacements keep
		// delegation chains deadlock-free, and its enqueues wake target
		// handlers in the hosting worker's next slot.
		h.selfClient.host = h
		h.selfClientPub.Store(h.selfClient)
	}
	return h.selfClient
}

// ready hands a running handler to the pool: w's next slot, or the
// injector for a nil w. It is called once per hIdle→hRunning wake and
// once per spent step budget, and one Step per call is what keeps the
// handler on one worker at a time.
func (h *Handler) ready(w *sched.Worker) {
	h.rt.stats.schedules.Add(1)
	h.rt.exec.ReadyLocal(w, &h.task)
}

// wake is wakeFrom without a worker context, for the wakes that bring
// no work: Shutdown's close and a rejected reservation.
func (h *Handler) wake() { h.wakeFrom(nil) }

// wakeFrom makes the handler runnable after one of its queues gained
// work (Session.log, Handler.enqueue) or its queue-of-queues may have
// quiesced; the queues themselves wake nobody. It schedules the handler
// in w's next slot when the producer runs on a pool worker — the
// fast re-ready path: a handler waking the next handler of a message
// chain keeps it on its own (warm) worker, and the executor skips the
// condvar when anyone is already scanning. A nil w is a producer on a
// goroutine of its own. A wake that finds the handler queued or
// draining marks it dirty, and the Step to come or in progress makes one
// more pass. Spurious calls are cheap and safe.
func (h *Handler) wakeFrom(w *sched.Worker) {
	for {
		switch h.state.Load() {
		case hIdle:
			if h.state.CompareAndSwap(hIdle, hRunning) {
				if obs.Enabled() {
					emitOn(w, obs.KindHandlerReady, uint64(h.id), 0)
				}
				h.ready(w)
				return
			}
		case hRunningDirty, hDone:
			return // will re-check, or retired
		case hRunning:
			if h.state.CompareAndSwap(hRunning, hRunningDirty) {
				return // the queued or running Step will make another pass
			}
		}
	}
}

// stepBudget bounds the requests one Step executes before the handler
// re-queues itself, so a handler fed by a fast client cannot starve
// the other handlers sharing the pool.
const stepBudget = 1024

// Step is the pool's entry point (sched.Runnable), run by worker w:
// resume this handler and run it until it exhausts available work,
// completes, or uses up its fairness budget. Exclusive ownership is
// guaranteed by the wake protocol — Step runs once per ready. Its
// opening store clears a dirty mark left by wakes while it was queued:
// the first poll sees their work. The worker is remembered for the
// duration so enqueues made by this handler's code ride its next slot.
func (h *Handler) Step(w *sched.Worker) { h.step(w, 0) }

// step is Step at a nesting depth: 0 from the worker loop, more when a
// hosted client runs the handler inline (Client.syncInline).
func (h *Handler) step(w *sched.Worker, depth int32) {
	h.state.Store(hRunning)
	var runT0 int64
	if obs.Enabled() {
		runT0 = obs.Now()
	}
	budget := stepBudget
	for {
		switch h.drain(w, depth, &budget) {
		case drainDone:
			if !h.state.CompareAndSwap(hRunning, hDone) {
				// A wake raced the retirement decision
				// (hRunningDirty); make one more pass to be certain.
				h.state.Store(hRunning)
				continue
			}
			h.noteRun(w, runT0)
			h.releaseWaiters()
			h.rt.wg.Done()
			return
		case drainBudget:
			// Still hRunning (or dirty): the next Step owns the handler.
			h.noteRun(w, runT0)
			// Through the injector, not the next slot: the budget
			// exists to round-robin a saturated handler with everyone
			// else's pending work, and a self-push would defeat it.
			h.ready(nil)
			return
		case drainEmpty:
			// Read cur before releasing ownership: after a successful
			// CAS to hIdle a wake may get the handler resumed on another
			// worker, which rewrites it.
			parkedMidSession := h.cur != nil
			h.noteRun(w, runT0)
			if h.state.CompareAndSwap(hRunning, hIdle) {
				if parkedMidSession {
					// The client owns the next move; its enqueue will
					// reschedule us.
					h.rt.stats.handlerParks.Add(1)
				}
				return
			}
			// A wake arrived while draining (hRunningDirty): new work
			// may have been enqueued after our last empty poll.
			h.state.Store(hRunning)
			if runT0 != 0 {
				runT0 = obs.Now() // new pass, new span
			}
		}
	}
}

// noteRun emits the handler-run span of one Step pass; no-op when the
// pass started with recording off.
func (h *Handler) noteRun(w *sched.Worker, t0 int64) {
	if t0 == 0 {
		return
	}
	emitOn(w, obs.KindHandlerRun, uint64(h.id), obs.Now()-t0)
}

// drainOutcome says why a drain pass stopped.
type drainOutcome int

const (
	drainEmpty  drainOutcome = iota // no work visible right now
	drainBudget                     // fairness budget exhausted, work may remain
	drainDone                       // queue-of-queues closed and fully drained
)

// drain is the handler loop of the paper's Fig. 7: dequeue private
// queues from the queue-of-queues and run each to its END (the run and
// end rules), returning to Step instead of blocking whenever a queue is
// empty. The session being drained stays pinned in h.cur across parks,
// which keeps the run rule's ordering: a handler never abandons a
// private queue mid-block, and after serving a sync it remains at the
// client's disposal (§3.2) — first spinning for the client's next
// request, then parking without touching other sessions.
//
// A pass starts by taking the Step's worker and depth, once it holds the
// pinned session (hold); while the session's client holds it, the pass
// writes nothing and idles, and the client's hand-back wakes h.
func (h *Handler) drain(w *sched.Worker, depth int32, budget *int) drainOutcome {
	if s := h.cur; s != nil && !hold(s) {
		return drainEmpty
	}
	h.onWorker, h.depth = w, depth
	for {
		if h.cur == nil {
			s, ok := h.qoq.TryDequeue()
			if !ok {
				// Retire only once the queue has quiesced: closed with
				// no reservation still in flight. A racing producer's
				// wake reschedules us otherwise, so nothing accepted
				// by the queue is ever abandoned.
				if h.qoq.Quiesced() {
					return drainDone
				}
				return drainEmpty
			}
			h.cur = s
		}
		s := h.cur
		for {
			if *budget <= 0 {
				return drainBudget
			}
			c, ok := s.q.TryDequeue()
			if !ok {
				if !h.spinForWork(s, budget) {
					return drainEmpty
				}
				continue
			}
			*budget--
			if h.spun {
				h.spun = false
			}
			if h.execOne(s, c) {
				break // session ended; back to the queue-of-queues
			}
		}
	}
}

// hold takes back a session whose lend outlived its engaged wait — left
// standing while h waited its turn on the pool (spinLent) — and reports
// whether h holds s. A client holding s gets it marked lendLeft, and its
// hand-back then wakes h.
func hold(s *Session) bool {
	for {
		switch w := s.lend.Load(); w & lendState {
		case lendHeld:
			return true
		case lendLent:
			if s.lend.CompareAndSwap(w, lendHeld) {
				return true
			}
		case lendClaimed:
			if s.lend.CompareAndSwap(w, w|lendLeft) {
				return false
			}
		default:
			return false
		}
	}
}

// spinForWork is the engaged wait (sched.Engaged), core's only one: the
// client's next request after a sync handshake is usually one scheduling
// step away, so poll before leaving the block parked. Once the budget is
// spent (spun), a re-pass before the next request polls only once: the
// worker spinning here is one other handlers may be waiting for — with a
// pool of one, the very handler the pinned client is parked on. An inline
// Step (depth > 0) polls only once too: it runs on its client's own
// goroutine, which logs nothing until the Step has returned, so it idles
// with the session pinned and the client's next request wakes it. In a
// block whose sync h has answered (lends), the wait lends the session
// to its client (spinLent).
func (h *Handler) spinForWork(s *Session, budget *int) bool {
	if h.spun || h.depth > 0 {
		return !s.q.Empty()
	}
	if h.lends {
		return h.spinLent(s, budget)
	}
	for i := 0; sched.Engaged.Poll(i); i++ {
		if !s.q.Empty() {
			return true
		}
	}
	h.spun = true
	return false
}

// lendGrace is how many times a lending handler re-reads the lend word
// after its client's count has moved before it takes the session back:
// time for a client between a Call and the SyncNow after it to claim.
const lendGrace = 256

// lendSlice bounds, in nanoseconds, how long a handler whose client keeps
// claiming holds its worker before it lets the handlers queued behind it
// run: about the step budget's worth of parked round trips.
const lendSlice = 500_000

// spinLent is the engaged wait of a block whose sync h has answered, on
// DynElide (dynamic sync coalescing, §3.4.1): h is caught up on s and at
// its client's disposal, so it lends s to the client (Session.claim),
// whose next sync or packaged query then runs on its own goroutine, in
// the manner of flat combining. It publishes one word, "lent at consumer
// count n", and while s is lent reads only the producer's count and the
// word, no consumer field of the queue the client may be running. A busy
// poll reads the count only; a yielding one reads the word too.
//
// h takes s back with one CAS before it consumes again or leaves the
// wait to idle: when the count moves and the client has not claimed
// within lendGrace reads (a Call not followed by a sync), or when the
// budget is spent with the word unchanged. A client that ends its block
// takes s back for h (Session.closeBlock), and h consumes the END at
// once. Each change of the word — a claim, a hand-back — restarts the
// budget past its busy polls, since the client is engaged. The client
// then runs requests of h's on h's time, so once lendSlice has passed
// since the first claim a change spends the step budget instead: h
// reports true, and drain re-queues it before it dequeues anything, with
// s still lent, so that a client that keeps claiming does not keep h's
// worker from the handlers queued behind it. The client goes on claiming
// meanwhile, and h's next pass takes s back (hold). A client holding s
// when the engaged budget runs out gets it marked lendLeft, and h idles
// without touching what s's holder owns.
func (h *Handler) spinLent(s *Session, budget *int) bool {
	n := s.q.Enqueued()
	if !s.q.Empty() {
		return true
	}
	// Empty re-read the producer's count and found the consumer at it, so
	// n is the consumer's count too.
	w := h.onWorker
	h.onWorker = nil
	seen := lentAt(n, 0)
	s.lend.Store(seen)
	var t0 int64 // when h first saw the client claim: a lend it never uses reads no clock
	for i := 0; ; i++ {
		more := sched.Engaged.Poll(i)
		if more && i < int(sched.Idle) && sameCount(seen, s.q.Enqueued()) {
			continue
		}
		cur := s.lend.Load()
		if cur == lendHeld { // the client's END took s back (Session.closeBlock)
			h.onWorker = w
			return true
		}
		if cur != seen {
			seen, i = cur, int(sched.Idle)-1
			if t0 == 0 {
				t0 = obs.Now()
			} else if obs.Now()-t0 > lendSlice {
				*budget = 0
				return true // s stays lent while h waits its turn (drain)
			}
			continue
		}
		switch {
		case cur&lendState == lendClaimed:
			if !more && s.lend.CompareAndSwap(cur, cur|lendLeft) {
				return false // the client hands s back (Session.runClaimed)
			}
			continue
		case more && sameCount(cur, s.q.Enqueued()):
			continue
		case more:
			for j := 0; j < lendGrace && s.lend.Load() == cur; j++ {
			}
		}
		if s.lend.CompareAndSwap(cur, lendHeld) {
			h.onWorker = w
			if !s.q.Empty() {
				return true
			}
			h.spun = true // the engaged budget is spent
			return false
		}
	}
}

// execOne executes a single request of session s and reports whether
// it was the END marker.
func (h *Handler) execOne(s *Session, c call) (ended bool) {
	switch c.kind {
	case callEnd, callWait, callGuard:
		// callGuard: the client is parked and h owns the state its guard
		// reads, so h answers — like a sync once the guard holds, and the
		// body starts in the very state the guard saw.
		if c.kind == callGuard {
			if h.guardHolds(s) {
				s.owner.parker.Unpark()
				return false
			}
			h.rt.stats.guardRetries.Add(1)
		}
		// The end rule: release the handler for other sessions. The
		// client may already have re-enqueued this session for its next
		// block — reuse needs no handshake, because each reservation
		// pairs with exactly one END-terminated run of the queue. An
		// ordinary END may have changed handler state and fires the
		// waiters; a failed guard's changed nothing and files its client
		// (a callGuard's generation is zero).
		h.cur, h.lends = nil, false
		h.rt.stats.endsProcessed.Add(1)
		if c.kind == callEnd && s.errPub.Load() != nil {
			// A panic poisons its block only. The client may have reused
			// the session before the panic landed (Client.session checks
			// for poison at reservation), so its next block starts clean.
			s.errPub.Store(nil)
		}
		if c.kind != callEnd {
			h.waiters = append(h.waiters, waiter{&s.owner.wait, c.at})
		} else if len(h.waiters) > 0 { // else not even the store of the list's header: every END pays it
			h.fireWaiters()
		}
		return true
	case callCall, callAlways:
		if c.at != 0 {
			// Log→execution latency of an async call; the stamp is only
			// written while recording is enabled (see Session.Call).
			d := obs.Now() - c.at
			callExecHist.Observe(d)
			emitOn(h.onWorker, obs.KindCall, uint64(h.id), d)
		}
		h.execCall(s, c.kind, c.fn)
	case callSync:
		// The sync rule: the client is parked in wait; release it, with
		// the reply of a packaged query in its slot (a failed query
		// poisons s, which is how the client learns of it). drain then
		// goes straight back to dequeueing this same private queue — the
		// handler is now idle at the client's disposal, which is what
		// makes client-side query execution safe.
		o := s.owner
		if o.query != nil {
			o.replyVal, _ = h.execQuery(s, o.query)
		}
		if h.rt.cfg.DynElide && !h.lends {
			h.lends = true
		}
		o.parker.Unpark()
	}
	return false
}

func (h *Handler) execCall(s *Session, kind callKind, fn func()) {
	if kind == callCall && s.errPub.Load() != nil {
		return // session poisoned by an earlier panic; skip (a callAlways runs and checks Err)
	}
	defer func() {
		if r := recover(); r != nil {
			s.errPub.Store(&HandlerError{Handler: h.name, Value: r})
		}
	}()
	fn()
}

// execQuery runs q as a query of s: not at all on a poisoned session,
// whose poison it returns, and a panic in q poisons s with the error it
// returns.
func (h *Handler) execQuery(s *Session, q querier) (v any, err error) {
	if e := s.errPub.Load(); e != nil {
		return nil, e
	}
	defer func() {
		if r := recover(); r != nil {
			he := &HandlerError{Handler: h.name, Value: r}
			s.errPub.Store(he)
			err = he
		}
	}()
	return q.query(), nil
}

// guardHolds evaluates the guard of s's parked client in place, as a
// query of the session: on a poisoned session it does not run, and a
// panic poisons it. A poisoned session answers true — its client must
// wake to re-raise the error at checkErr.
func (h *Handler) guardHolds(s *Session) bool {
	s.onHandler = true
	v, _ := h.execQuery(s, &s.owner.wait)
	s.onHandler, s.synced = false, false
	return s.errPub.Load() != nil || v.(bool)
}

// fireWaiters runs at an ordinary END, the only point the state a filed
// guard read may have changed, and walks the list in filing order.
//
// A guard h evaluates itself (gen 0) is run again, and the first that
// holds is started directly: its session becomes cur and its client is
// unparked, with no reservation, lock or second evaluation in between.
// The rest stay filed, unevaluated, until that block's END fires the
// list again, so waiters whose guard holds run in filing order, and a
// block queued in the queue-of-queues waits for at most the waiters
// filed ahead of it: new ones only come out of that queue.
//
// A client-evaluated block is woken unreserved, the state its guard read
// may have changed, and its client reserves it again. It is filed on all
// its handlers; the generation CompareAndSwap lets exactly one act and
// the rest drop the entry.
func (h *Handler) fireWaiters() {
	keep := h.waiters[:0]
	for _, w := range h.waiters {
		switch {
		case w.gen == 0 && (h.cur != nil || !h.guardHolds(w.rec.sessions[0])):
			keep = append(keep, w) // behind the waiter just started, or still false
		case w.gen == 0:
			h.cur = w.rec.sessions[0]
			h.cur.owner.parker.Unpark()
		case w.rec.gen.CompareAndSwap(w.gen, w.gen+1): // else stale
			w.rec.release()
		}
	}
	clear(h.waiters[len(keep):])
	h.waiters = keep
}

// releaseWaiters wakes every client still filed with a retiring handler,
// unreserved: nothing will start or wake it any more, and its
// SeparateWhen panics with ErrShutdown.
func (h *Handler) releaseWaiters() {
	for _, w := range h.waiters {
		if w.gen == 0 || w.rec.gen.CompareAndSwap(w.gen, w.gen+1) {
			w.rec.release()
		}
	}
	h.waiters = nil
}

// enqueueGroup registers a block's sessions — one per handler, in id
// order — as one atomic group (§3.3). Under Config.QoQ it holds every
// handler's resMu, taken in id order, while it enqueues; in lock-based
// mode the caller already holds them for the whole block. w is as for
// enqueue; false means shutting down.
func (rt *Runtime) enqueueGroup(ss []*Session, w *sched.Worker) bool {
	qoq := rt.cfg.QoQ
	if qoq {
		for _, s := range ss {
			s.h.resMu.Lock()
		}
	}
	ok := true
	for _, s := range ss {
		ok = ok && s.h.enqueue(s, w)
	}
	if qoq {
		for i := len(ss) - 1; i >= 0; i-- {
			ss[i].h.resMu.Unlock()
		}
	}
	if ok {
		rt.stats.multiResGroups.Add(1)
	}
	return ok
}

// enqueue registers s with h's queue-of-queues and wakes h. The wake
// carries the producer's worker context, so a handler reserving another
// handler schedules it in its own worker's next slot. False means the
// runtime is shutting down.
func (h *Handler) enqueue(s *Session, w *sched.Worker) bool {
	if !h.qoq.TryEnqueue(s) {
		// A retiring h may have seen our in-flight mark, now dropped, and
		// found the queue not yet quiesced: wake it to look again.
		h.wake()
		return false
	}
	h.wakeFrom(w)
	return true
}
