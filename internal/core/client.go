package core

import (
	"sync/atomic"

	"scoopqs/internal/future"
	"scoopqs/internal/obs"
	"scoopqs/internal/sched"
)

// Client is a thread-of-control's context for entering separate blocks.
// It caches private queues per handler (the paper's "cache of queues")
// and holds the wait record SeparateWhen parks on. A Client is not safe
// for concurrent use: create one per goroutine.
//
// A client is one allocation plus its parker's channel: the parker is
// embedded, and the cache is a one-session slot until the client
// reaches a second handler (session).
type Client struct {
	rt *Runtime

	// slot is the first session of the first handler the client
	// reserved, cache the first session of each later one, made when the
	// client reaches its second handler. Further sessions on a handler
	// chain behind its first (Session.next).
	slot  *Session
	cache map[*Handler]*Session

	wait    waitRec
	scratch []*Handler // reserveMany's sorted handler set, dead on return

	// parker is what the client waits on, for one answer at a time: a
	// handler reaching its sync or packaged query, or starting or
	// releasing its waiting block. Each wait is answered by exactly one
	// Unpark, taken by Park or, after an inline Step (syncInline), by
	// TryPark.
	//
	// query and replyVal are the one-answer slot of a packaged query
	// (Session.queryRemote): the client writes query before it logs
	// callSync, so the queue's hand-off orders it for the handler, which
	// leaves the result in replyVal before its Unpark, and the client
	// clears both when it wakes. A failed query poisons its session
	// instead of replying. query is nil for a plain sync.
	parker   sched.Parker
	query    querier
	replyVal any

	// host is the handler whose code this client runs on (AsClient),
	// nil for ordinary clients. It supplies the worker context for the
	// scheduler's local-push fast path: requests this client logs wake
	// their target in the hosting worker's next slot, from where its
	// round trips may run the target inline (syncInline). The client's
	// blocking operations also bracket their waits with the executor's
	// compensation hooks, so it can spawn a replacement worker.
	host *Handler

	// waitingOn is the handler a host's client is blocked on in a sync
	// or packaged query, nil when running. Only DetectDeadlock reads it,
	// and it follows handlers' own clients only, so no other client
	// stores it.
	waitingOn atomic.Pointer[Handler]

	// The per-request and per-block counts since the last flush: plain
	// adds on the request and reservation paths, folded into the
	// runtime's Stats at the client's synchronization points. A handler
	// evaluating a guard in place counts for the parked client; the
	// park/unpark hand-off orders it.
	calls, localQueries, syncsElided          int64
	remoteQueries, syncsPerformed             int64
	reservations, sessionsNew, sessionsReused int64
}

// flush adds the client's per-request and per-block counts to the
// runtime's Stats and zeroes them. It runs before the client parks in a
// sync or packaged query, when a block ends (Session.end,
// Session.endWaiting) and when a reservation fails: every count reaches
// Stats once the block that made it has ended.
func (c *Client) flush() {
	st := &c.rt.stats
	if c.calls != 0 {
		st.asyncCalls.Add(c.calls)
		c.calls = 0
	}
	if c.localQueries != 0 {
		st.localQueries.Add(c.localQueries)
		c.localQueries = 0
	}
	if c.syncsElided != 0 {
		st.syncsElided.Add(c.syncsElided)
		c.syncsElided = 0
	}
	if c.remoteQueries != 0 {
		st.remoteQueries.Add(c.remoteQueries)
		c.remoteQueries = 0
	}
	if c.syncsPerformed != 0 {
		st.syncsPerformed.Add(c.syncsPerformed)
		c.syncsPerformed = 0
	}
	if c.reservations != 0 {
		st.reservations.Add(c.reservations)
		c.reservations = 0
	}
	if c.sessionsNew != 0 {
		st.sessionsNew.Add(c.sessionsNew)
		c.sessionsNew = 0
	}
	if c.sessionsReused != 0 {
		st.sessionsReused.Add(c.sessionsReused)
		c.sessionsReused = 0
	}
}

// blockBegin/blockEnd bracket operations that block the calling
// goroutine until some handler makes progress. They are no-ops for
// ordinary clients; for worker-hosted clients they keep the pool
// supplied with runnable workers (see sched.Executor).
func (c *Client) blockBegin() {
	if c.host != nil {
		// The worker context lets the executor republish this worker's
		// local queue before the goroutine parks.
		c.rt.exec.BlockingBegin(c.host.onWorker)
	}
}

func (c *Client) blockEnd() {
	if c.host != nil {
		c.rt.exec.BlockingEnd(c.host.onWorker)
	}
}

// park waits on the client's parker until a handler answers. A hosted
// client's round trip first tries syncInline, and parks only when that
// did not answer it.
func (c *Client) park() {
	c.blockBegin()
	c.parker.Park()
	c.blockEnd()
}

// maxInline bounds how deeply inline Steps nest on one goroutine: a
// handler run inline may itself host a client whose sync runs its own
// target inline. Past it the sync parks, and the target runs on another
// worker, at depth 0 again.
const maxInline = 8

// syncInline is a hosted client's alternative to parking for the answer
// to a round trip it has just logged on h: when h is still queued in the
// next slot of the worker the client runs on — log put it there, waking h
// from idle — the client takes it back and runs h's Step itself, on its
// own goroutine, instead of handing h to another worker and sleeping
// until that one answers (exit passes to the waiter: one goroutine switch
// less per sync). It is the same Step, so the run rule, the step budget
// and the answer are those of a worker's run. It reports whether the
// Step answered: the sync's Unpark then left its token, which it takes.
// Otherwise — h was pinned on another client's block, say — h has idled
// or re-queued itself, and the client parks as before.
func (c *Client) syncInline(h *Handler) bool {
	host := c.host
	if host == nil || host.depth >= maxInline || !c.rt.exec.ClaimNext(host.onWorker, &h.task) {
		return false
	}
	h.step(host.onWorker, host.depth+1)
	return c.parker.TryPark()
}

// curWorker returns the pool worker the client's code is currently
// running on, nil for clients on goroutines of their own.
// Only meaningful on the calling goroutine itself: for a
// handler-hosted client that is exactly the goroutine executing the
// host's Step, so the plain read is ordered.
func (c *Client) curWorker() *sched.Worker {
	if c.host != nil {
		return c.host.onWorker
	}
	return nil
}

// session returns a private queue for h, reusing an idle one from the
// client's cache, else allocating fresh (Fig. 8: "freshly created or
// taken from a cache of queues").
//
// Reuse is re-armed by the END handoff itself, with no handshake: once
// the client has logged END, re-enqueueing the same session into the
// queue-of-queues is safe even while the handler is still draining the
// previous block, because each reservation pairs with exactly one
// END-terminated segment of the private queue — the handler simply
// dequeues the session again and runs the next segment. (An earlier
// version spun waiting for the handler to consume END and fell back to
// a fresh queue after 128 polls, which made SessionsNew climb whenever
// a handler was scheduled out too long.)
//
// The cache holds the first session of each handler. The slot holds
// that of the first handler the client reserved, and the common hit is
// one pointer compare against it; the map, made when the client reaches
// its second handler, holds those of later ones. A client with blocks open
// on h at once — the remote server's connection reader serves all of
// its channels with one client — or whose last block on h is still
// poisoned finds it busy and takes the next idle, clean session chained
// behind it (Session.next), chaining a fresh one only when none is. So
// a client holds as many sessions on h as it ever had blocks open (or
// poisoned) on h at once.
func (c *Client) session(h *Handler) *Session {
	first := c.slot
	if first == nil || first.h != h {
		first = c.cache[h]
	}
	for s := first; s != nil; s = s.next {
		if !s.inUse && s.errPub.Load() == nil {
			s.inUse = true
			s.synced = false
			c.sessionsReused++
			return s
		}
	}
	s := &Session{h: h, owner: c, inUse: true}
	s.q.Init()
	switch {
	case first != nil:
		s.next, first.next = first.next, s
	case c.slot == nil:
		c.slot = s
	default:
		if c.cache == nil {
			c.cache = make(map[*Handler]*Session)
		}
		c.cache[h] = s
	}
	c.sessionsNew++
	return s
}

// TryReserve opens a single-handler separate block without the lexical
// callback shape (the separate rule): it registers the client's private
// queue with the handler and returns it. In QoQ mode this is a
// non-blocking enqueue into the queue-of-queues; in lock-based mode the
// client first takes the handler's lock and holds it until End (Fig. 2
// semantics: other clients wait until it is finished). It fails with
// ErrShutdown, and then nothing is reserved.
//
// It exists for the remote demultiplexer, whose socket-backed private
// queues cannot express a block as one function call and whose
// connection reader serves many logical clients at once: a reservation
// racing Shutdown fails that one channel, not the goroutine every
// channel shares. Every successful TryReserve must be matched by
// exactly one End; forgetting it wedges the handler exactly as a
// never-ending separate block would. Prefer Separate.
func (c *Client) TryReserve(h *Handler) (*Session, error) {
	if !c.rt.cfg.QoQ {
		c.lockHandler(h)
	}
	s := c.session(h)
	if !h.enqueue(s, c.curWorker()) {
		if !c.rt.cfg.QoQ {
			h.resMu.Unlock()
		}
		// Un-mark the cached session: the reservation never happened,
		// so the cache entry must not look mid-block.
		s.inUse = false
		c.flush()
		return nil, ErrShutdown
	}
	c.reservations++
	return s, nil
}

// lockHandler takes the lock-based-mode handler lock, telling the
// executor first when the wait may be long (worker-hosted client
// blocked behind another client's block).
func (c *Client) lockHandler(h *Handler) {
	if h.resMu.TryLock() {
		return
	}
	c.blockBegin()
	h.resMu.Lock()
	c.blockEnd()
}

// End ends the block TryReserve opened on s: it logs the END marker
// and, in lock-based mode, gives up the handler lock. Call it once per
// reservation; s belongs to the client's cache again afterwards.
func (c *Client) End(s *Session) {
	s.end()
	if !c.rt.cfg.QoQ {
		s.h.resMu.Unlock()
	}
}

// Separate runs body within a single-handler separate block:
//
//	separate h do body end
//
// Asynchronous calls logged on the session execute on h in order with
// no interleaving from other clients. The reservation itself never
// blocks in QoQ mode. If body panics the block is still terminated
// correctly before the panic propagates.
func (c *Client) Separate(h *Handler, body func(*Session)) {
	s, err := c.TryReserve(h)
	if err != nil {
		panic(err)
	}
	defer c.End(s)
	body(s)
}

// reserveMany atomically reserves all handlers (deduplicated), in id
// order: QoQ mode enqueues all private queues as one group (§3.3);
// lock-based mode first takes the handler locks, held for the whole
// block. Reserving a handler twice in one block is an error in SCOOP;
// duplicates fold into one reservation.
func (c *Client) reserveMany(hs []*Handler) []*Session {
	// Insertion sort into the client's scratch: sets have one or two
	// members. sessions outlives the call and a nested block on this
	// client must not clobber it: a lone session backs it itself (which
	// pays for the guard closure SeparateWhen hands its handler), a
	// larger set is allocated.
	uniq := c.scratch[:0]
	for _, h := range hs {
		i := len(uniq)
		for i > 0 && uniq[i-1].id > h.id {
			i--
		}
		if i > 0 && uniq[i-1] == h {
			continue
		}
		uniq = append(uniq, nil)
		copy(uniq[i+1:], uniq[i:])
		uniq[i] = h
	}
	c.scratch = uniq
	var sessions []*Session
	if len(uniq) > 1 {
		sessions = make([]*Session, len(uniq))
	}
	for i, h := range uniq {
		if !c.rt.cfg.QoQ {
			c.lockHandler(h)
		}
		s := c.session(h)
		if sessions == nil {
			sessions = s.one[:]
		}
		sessions[i] = s
	}
	if !c.rt.enqueueGroup(sessions, c.curWorker()) {
		c.unlockMany(sessions)
		c.flush()
		panic(ErrShutdown)
	}
	return sessions
}

func (c *Client) releaseMany(sessions []*Session) {
	for _, s := range sessions {
		s.end()
	}
	c.unlockMany(sessions)
}

// unlockMany gives up the handler locks of a lock-based-mode block.
func (c *Client) unlockMany(sessions []*Session) {
	if !c.rt.cfg.QoQ {
		for i := len(sessions) - 1; i >= 0; i-- {
			sessions[i].h.resMu.Unlock()
		}
	}
}

// SeparateMany runs body within a multi-handler separate block (§2.4):
// all handlers are reserved atomically, so any other client that
// reserves an overlapping set sees either all or none of this block's
// effects. The sessions passed to body are ordered by handler id
// (ascending), after deduplication.
func (c *Client) SeparateMany(hs []*Handler, body func([]*Session)) {
	sessions := c.reserveMany(hs)
	defer c.releaseMany(sessions)
	body(sessions)
}

// SeparateWhen runs body within a multi-handler separate block once
// guard holds (SCOOP wait conditions). The guard is evaluated with the
// handlers reserved, and the body starts in the very state it saw; while
// it is false the block is given up and the client parked until some
// other client's block on one of the handlers has completed.
//
// guard must be side-effect-free on the handlers' state and must not
// block. It may run any number of times, and not only on the caller's
// goroutine: when the block reserves a single handler under Config.QoQ
// that handler evaluates the guard itself, on its own goroutine, while
// the caller stays parked (queries and calls the guard makes on its
// session then execute in place, and a panic in the guard reaches the
// caller as *HandlerError, like a packaged query's).
func (c *Client) SeparateWhen(hs []*Handler, guard func([]*Session) bool, body func([]*Session)) {
	sessions := c.reserveMany(hs)
	// One release for guard, wake-up and body: a panicking guard (say on
	// a poisoned session) must end the block too, or the handlers wedge.
	defer func() { c.releaseMany(sessions) }()
	if c.rt.cfg.QoQ && len(sessions) == 1 {
		// The one handler owns everything the guard may read, so it
		// answers: callGuard comes back like a sync, once the guard holds,
		// with the block started and the handler synced on it.
		s := sessions[0]
		c.wait.sessions, c.wait.guard = sessions, guard
		s.log(call{kind: callGuard})
		c.parkWaiting(s.h)
		if c.wait.sessions == nil {
			panic(ErrShutdown) // released by a retiring handler
		}
		s.synced = true
		s.checkErr()
	} else {
		// No single handler may read all of a multi-handler block's
		// state, and without the queue-of-queues no handler can hold a
		// block for a parked client: those guards run here, and a failed
		// one waits through callWait and the generation CompareAndSwap
		// (nothing of that path can go while they use it).
		for !guard(sessions) {
			c.rt.stats.guardRetries.Add(1)
			c.waitForChange(sessions)
			// The client wakes unreserved. Nothing is held while
			// re-reserving, which may panic (Shutdown).
			sessions = nil
			sessions = c.reserveMany(hs)
		}
	}
	body(sessions)
}

// waitForChange gives up a block whose guard failed and parks the client
// until the state the guard read may have changed: every session gets
// the callWait marker in place of END, and the handlers fire the wait
// record at their next ordinary END (fireWaiters), waking the client
// with nothing reserved.
func (c *Client) waitForChange(sessions []*Session) {
	c.wait.sessions = sessions
	gen := c.wait.gen.Add(1) // odd: armed
	for _, s := range sessions {
		s.endWaiting(gen)
	}
	c.unlockMany(sessions)
	c.parkWaiting(sessions[0].h)
}

// parkWaiting parks the client until a handler has started its waiting
// block (callGuard) or released it: fired it (callWait) or, retiring,
// given it up (Shutdown). h, the block's first handler, labels the trace.
func (c *Client) parkWaiting(h *Handler) {
	var t0 int64
	if obs.Enabled() {
		t0 = obs.Now()
	}
	c.park()
	if t0 != 0 {
		d := obs.Now() - t0
		guardWaitHist.Observe(d)
		obs.Emit(obs.KindGuardWait, uint64(h.id), d)
	}
}

// Await blocks until f resolves and returns its result. It is the
// synchronization point of the futures subsystem:
//
//   - for a worker-hosted client (handler code) the wait is
//     bracketed with the executor's compensation hooks, like any other
//     blocking operation;
//   - after Runtime.Shutdown a future nothing resolved (one made with
//     future.New, say) never will, so Await returns ErrShutdown
//     instead of hanging.
//
// The error is *HandlerError when the future's query panicked; Query
// re-panics that error at the client instead.
func (c *Client) Await(f *future.Future) (any, error) {
	if v, err, ok := f.TryGet(); ok {
		return v, err
	}
	c.blockBegin()
	defer c.blockEnd()
	select {
	case <-f.Done():
		return f.Get()
	case <-c.rt.downC:
		// Re-check so a future that resolved while we raced the close
		// is honored.
		if v, err, ok := f.TryGet(); ok {
			return v, err
		}
		return nil, ErrShutdown
	}
}

// Runtime returns the runtime this client belongs to.
func (c *Client) Runtime() *Runtime { return c.rt }
