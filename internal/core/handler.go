package core

import (
	"sync"
	"sync/atomic"

	"scoopqs/internal/future"
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
	// reservations.
	qoq *queue.MPSC[*Session]

	// Scheduling state (see the h* constants). cur is the session pinned
	// mid-drain, owned by whichever goroutine holds the hRunning state;
	// the wake/Step protocol guarantees exclusive, happens-before-ordered
	// access. task is the handler's scheduling token on the pool, made
	// once so wakes never heap-allocate. onWorker is the pool worker
	// currently executing Step; it is only read by code running on this
	// handler (the same goroutine), which is what lets a handler's own
	// enqueues take the executor's local-deque fast path.
	state    atomic.Int32
	cur      *Session
	task     *sched.Task
	onWorker *sched.Worker

	// spun is set when spinForWork has spent its engaged budget and
	// cleared when the next request runs: one idle wait spends the
	// budget at most once, however many wakes (another client's
	// reservation, say) force re-passes over the pinned session. Owned
	// like cur, and stored only when it changes, so the request path
	// does not write next to the state word that wakers CAS.
	spun bool

	// resSpin is the per-handler spinlock that makes multi-handler
	// reservations atomic (§3.3).
	resSpin sched.SpinLock

	// resMu is the handler lock of the original SCOOP semantics,
	// used only when Config.QoQ is false. A client holds it for the
	// entire duration of its separate block.
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

// Handler states. A handler is hIdle when it has no known work, hReady
// once made runnable (ready) and until its driver calls Step, hRunning
// while Step drains it, hRunningDirty when a wake arrived during a
// drain (forcing one more pass before idling), and hDone once its
// queue-of-queues is closed and drained.
const (
	hIdle int32 = iota
	hReady
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
		qoq:  queue.NewMPSC[*Session](0),
	}
	rt.handlers = append(rt.handlers, h)
	rt.wg.Add(1)
	h.task = sched.NewTask(h)
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
		// handlers on the hosting worker's local deque.
		h.selfClient.host = h
		h.selfClientPub.Store(h.selfClient)
	}
	return h.selfClient
}

// ready hands a handler that has just entered hReady to the pool, once
// per entry: w's local deque, or the injector for a nil w. One Step per
// entry into hReady is what keeps it on one worker at a time.
func (h *Handler) ready(w *sched.Worker) {
	h.rt.stats.schedules.Add(1)
	h.rt.exec.ReadyLocal(w, h.task)
}

// wake is wakeFrom without a worker context, for the wakes that bring
// no work: Shutdown's close and a rejected reservation.
func (h *Handler) wake() { h.wakeFrom(nil) }

// wakeFrom makes the handler runnable after one of its queues gained
// work (Session.log, Handler.enqueue) or its queue-of-queues may have
// quiesced; the queues themselves wake nobody. It schedules the handler
// on w's local deque when the producer runs on a pool worker — the
// fast re-ready path: a handler waking the next handler of a message
// chain keeps it on its own (warm) worker, and the executor skips the
// condvar when anyone is already scanning. A nil w is a producer on a
// goroutine of its own. Spurious calls are cheap and safe.
func (h *Handler) wakeFrom(w *sched.Worker) {
	for {
		switch h.state.Load() {
		case hIdle:
			if h.state.CompareAndSwap(hIdle, hReady) {
				if obs.Enabled() {
					emitOn(w, obs.KindHandlerReady, uint64(h.id), 0)
				}
				h.ready(w)
				return
			}
		case hReady, hRunningDirty, hDone:
			return // already scheduled, will re-check, or retired
		case hRunning:
			if h.state.CompareAndSwap(hRunning, hRunningDirty) {
				return // the running Step will make another pass
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
// guaranteed by the wake protocol — Step runs once after each
// transition to hReady. The worker is remembered for the duration so
// enqueues made by this handler's code ride its local deque.
func (h *Handler) Step(w *sched.Worker) {
	h.onWorker = w
	h.state.Store(hRunning)
	var runT0 int64
	if obs.Enabled() {
		runT0 = obs.Now()
	}
	budget := stepBudget
	for {
		switch h.drain(&budget) {
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
			h.state.Store(hReady)
			h.noteRun(w, runT0)
			// Through the injector, not the local deque: the budget
			// exists to round-robin a saturated handler with everyone
			// else's pending work, and a LIFO self-push would defeat it.
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
func (h *Handler) drain(budget *int) drainOutcome {
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
				if !h.spinForWork(s) {
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

// spinForWork is the engaged wait (sched.Engaged), core's only one: the
// client's next request after a sync handshake is usually one scheduling
// step away, so poll before leaving the block parked. Once the budget is
// spent (spun), a re-pass before the next request polls only once: the
// worker spinning here is one other handlers may be waiting for — with a
// pool of one, the very handler the pinned client is parked on.
func (h *Handler) spinForWork(s *Session) bool {
	if h.spun {
		return !s.q.Empty()
	}
	for i := 0; sched.Engaged.Poll(i); i++ {
		if !s.q.Empty() {
			return true
		}
	}
	h.spun = true
	return false
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
		h.cur = nil
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
	case callFuture:
		// An asynchronous query: execute and resolve the future; nobody
		// is parked on the session, so the handler just moves on.
		v, err := h.execQuery(s, c.qfn)
		resolveFuture(c.fut, v, err)
	case callSync:
		// The sync rule: the client is parked in wait; release it, with
		// the reply of a packaged query in its slot. drain then goes
		// straight back to dequeueing this same private queue — the
		// handler is now idle at the client's disposal, which is what
		// makes client-side query execution safe.
		o := s.owner
		if c.qfn != nil {
			o.replyVal, o.replyErr = h.execQuery(s, c.qfn)
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

func (h *Handler) execQuery(s *Session, qfn func() any) (v any, err error) {
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
	return qfn(), nil
}

// resolveFuture resolves fut with a query result. A result that is
// itself a *future.Future is just a value: fut completes with it.
func resolveFuture(fut *future.Future, v any, err error) {
	if err != nil {
		fut.Fail(err)
		return
	}
	fut.Complete(v)
}

// guardHolds evaluates the guard of s's parked client in place, as a
// query of the session: on a poisoned session it does not run, and a
// panic poisons it. A poisoned session answers true — its client must
// wake to re-raise the error at checkErr.
func (h *Handler) guardHolds(s *Session) bool {
	s.onHandler = true
	w := &s.owner.wait
	v, _ := h.execQuery(s, func() any { return w.guard(w.sessions) })
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
// order — as one atomic group, holding every handler's reservation
// spinlock (§3.3; uncontended in lock-based mode, whose caller holds the
// handler locks). w is as for enqueue; false means shutting down.
func (rt *Runtime) enqueueGroup(ss []*Session, w *sched.Worker) bool {
	for _, s := range ss {
		s.h.resSpin.Lock()
	}
	ok := true
	for _, s := range ss {
		ok = ok && s.h.enqueue(s, w)
	}
	for i := len(ss) - 1; i >= 0; i-- {
		ss[i].h.resSpin.Unlock()
	}
	if ok {
		rt.stats.multiResGroups.Add(1)
	}
	return ok
}

// enqueue registers s with h's queue-of-queues and wakes h. The wake
// carries the producer's worker context, so a handler reserving another
// handler schedules it on its own worker's deque. False means the
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
