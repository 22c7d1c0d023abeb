package remote

import (
	"encoding/binary"
	"fmt"
	"sync"

	"scoopqs/internal/future"
	"scoopqs/internal/obs"
)

// RemoteSession is one logical client multiplexed onto a Mux: its
// private queues ride a shared connection instead of an in-process
// lock-free queue, identified on the wire by a channel id. Like a
// core.Client it must not be used concurrently — but any number of
// RemoteSessions on the same Mux may run in parallel, which is where
// one connection's concurrency comes from.
//
// Requests are fire-and-forget writes into the connection's batching
// writer: BEGIN and END pay no round-trip, queries are pipelined and
// resolve futures as the reader demultiplexes replies. Errors surface
// at synchronization points (Query, Sync, Await, Flush), matching the
// local runtime's separate-block semantics.
//
// Fire-and-forget is bounded, not unlimited: each channel holds a
// credit window (window credits at the start, replenished by the
// server with CREDIT frames), and every request-logging operation —
// Call, QueryAsync, Query, Sync — consumes one credit, waiting when
// the window is exhausted until completions replenish it (one
// MuxStats.CreditStalls per wait). The connection's shared writer
// additionally holds producers (including BEGIN/END) while its pending
// batch is at the byte budget, until it takes the batch (one
// MuxStats.WriterStalls per wait; the server's reader waits the same
// way on this connection's unread output). Both waits end in
// bounded memory on a healthy connection and in a fast failure on a
// dead one; because they can block, remote operations must not be
// called from a Future.OnComplete callback (which runs on the mux's
// reader goroutine).
type RemoteSession struct {
	m  *Mux
	ch uint32

	// nextID and scratch (the int veneer's argument encoding) are owned
	// by the session's goroutine; pending is shared with the mux reader,
	// hence the mutex.
	nextID  uint64
	scratch []byte
	mu      sync.Mutex
	pending map[uint64]pendingReq
	closed  bool
	term    error // terminal failure recorded by the teardown sweep

	// credits is the channel's remaining request window. An admission
	// at zero waits on credit (over mu), broadcast by a CREDIT grant the
	// mux reader applies, by Close and by the teardown (failPending).
	credits int64
	credit  sync.Cond

	// blk is the Session every Separate body of this logical client
	// receives: it names nothing but rs, so one per RemoteSession does.
	blk Session

	// blockErr holds a block-level failure the server reported with an
	// id-0 ERROR frame (unknown handler, reservation after shutdown,
	// unknown procedure in a call) — the cases a fire-and-forget block
	// with no query of its own would otherwise never learn about. It is
	// sticky (first failure wins) until a synchronization point — the
	// end of a Separate, or Flush — takes it.
	blockErr error
}

// pendingReq is a pipelined request awaiting its reply. ints marks the
// int veneer's queries and syncs, whose reply the mux reader decodes to
// an int64 (releasing the payload) before completing f.
type pendingReq struct {
	f    *future.Future
	ints bool
}

// Close retires the logical client: it sends CLOSE — the server ENDs
// any open block and frees the channel's state — and leaves the
// connection to the Mux's other sessions (Mux.Close tears it down).
// Unresolved pipelined futures are failed.
func (rs *RemoteSession) Close() error {
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return nil
	}
	rs.closed = true
	rs.credit.Broadcast() // release admissions waiting on this channel
	rs.mu.Unlock()
	rs.m.drop(rs.ch)
	rs.m.w.frame(&frame{kind: fClose, ch: rs.ch})
	rs.failPending(ErrClosed)
	return nil
}

// termErr returns the session's terminal error: the one recorded by a
// teardown sweep, else the mux's, else the generic closed error.
func (rs *RemoteSession) termErr() error {
	rs.mu.Lock()
	term := rs.term
	rs.mu.Unlock()
	if term != nil {
		return term
	}
	if err := rs.m.Err(); err != nil {
		return err
	}
	return ErrClosed
}

// send writes one frame through the mux's batching writer, parking at
// the writer's byte budget until it drains.
func (rs *RemoteSession) send(f *frame) error {
	if !rs.m.w.frame(f) {
		return fmt.Errorf("remote: send: %w", rs.termErr())
	}
	return nil
}

// acquireCredit consumes one unit of the channel's request window,
// waiting at zero until the server's CREDIT replenishment arrives. It
// fails fast — without waiting — on a closed session or a dead mux.
func (rs *RemoteSession) acquireCredit() error {
	rs.mu.Lock()
	if rs.credits == 0 && !rs.closed && rs.term == nil {
		rs.m.creditStalls.Add(1)
		var t0 int64
		if obs.Enabled() {
			t0 = obs.Now()
		}
		for rs.credits == 0 && !rs.closed && rs.term == nil {
			rs.credit.Wait()
		}
		if t0 != 0 {
			d := obs.Now() - t0
			creditWaitHist.Observe(d)
			obs.Emit(obs.KindCreditWait, uint64(rs.ch), d)
		}
	}
	if rs.closed || rs.term != nil {
		rs.mu.Unlock()
		return fmt.Errorf("remote: send: %w", rs.termErr())
	}
	rs.credits--
	rs.mu.Unlock()
	return nil
}

// addCredits applies a CREDIT grant and releases waiting admissions.
// Called by the mux reader. It reports false, applying nothing, for a
// zero grant or one that would lift the balance above window: a server
// only gives back credits of completed requests, so an honest grant
// never does either.
func (rs *RemoteSession) addCredits(n uint64) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if n == 0 || n > uint64(window-rs.credits) {
		return false
	}
	rs.credits += int64(n)
	rs.credit.Broadcast()
	return true
}

// register allocates a pipeline id and parks p under it until the
// reader resolves it.
func (rs *RemoteSession) register(p pendingReq) (uint64, error) {
	rs.nextID++
	id := rs.nextID
	rs.mu.Lock()
	if rs.closed || rs.term != nil {
		rs.mu.Unlock()
		return 0, rs.termErr()
	}
	rs.pending[id] = p
	rs.mu.Unlock()
	return id, nil
}

// sealRegistration re-checks the mux after a successful send: if the
// connection died between registering and sending, the teardown may
// have swept the pending map before our entry was visible, so we fail
// the future ourselves (Future.Fail is first-wins, a double fail is
// harmless).
func (rs *RemoteSession) sealRegistration(id uint64, f *future.Future) error {
	if err := rs.m.Err(); err != nil {
		rs.mu.Lock()
		delete(rs.pending, id)
		rs.mu.Unlock()
		f.Fail(err)
		return err
	}
	return nil
}

// unregister abandons a pending id after a failed send.
func (rs *RemoteSession) unregister(id uint64) {
	rs.mu.Lock()
	delete(rs.pending, id)
	rs.mu.Unlock()
}

// resolve matches an ERROR/REPLYB frame to its future — or, for an
// id-0 ERROR, records the block-level failure. Called by the mux
// reader. A bytes query's reply payload moves into the future; on
// every path where no awaiter can take it — duplicate id, an int
// reply decoded here, or a future the teardown already failed — the
// payload is released here so the slab is not pinned by a value nobody
// holds.
func (rs *RemoteSession) resolve(f *frame) {
	if f.kind == fError && f.id == 0 {
		rs.setBlockErr(fmt.Errorf("remote: server: %s", f.name))
		return
	}
	rs.mu.Lock()
	p, ok := rs.pending[f.id]
	delete(rs.pending, f.id)
	rs.mu.Unlock()
	switch {
	case !ok:
		Release(f.data) // duplicate or unknown id; nothing to resolve
	case f.kind == fError:
		p.f.Fail(fmt.Errorf("remote: server: %s", f.name))
	case p.ints:
		// One zigzag varint; SYNC's empty reply reads as 0.
		v, n := binary.Varint(f.data)
		Release(f.data)
		if n != len(f.data) {
			p.f.Fail(fmt.Errorf("remote: malformed int reply: %w", ErrProtocol))
		} else {
			p.f.Complete(v)
		}
	case !p.f.Complete(f.data):
		Release(f.data) // lost to a teardown Fail; nobody will Await it
	}
}

// setBlockErr records a block-level failure; the first one wins.
func (rs *RemoteSession) setBlockErr(err error) {
	rs.mu.Lock()
	if rs.blockErr == nil {
		rs.blockErr = err
	}
	rs.mu.Unlock()
}

// takeBlockErr consumes the recorded block-level failure, if any.
func (rs *RemoteSession) takeBlockErr() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	err := rs.blockErr
	rs.blockErr = nil
	return err
}

// failPending marks the session terminally failed, resolves every
// outstanding pipelined future with err, and releases admissions
// waiting on credits; called when the channel or connection dies.
// Recording term under the lock an admission waits with closes the
// race where it starts waiting just after the teardown's sweep — the
// admission re-checks term before waiting.
func (rs *RemoteSession) failPending(err error) {
	rs.mu.Lock()
	if rs.term == nil {
		rs.term = err
	}
	pend := rs.pending
	rs.pending = map[uint64]pendingReq{}
	rs.credit.Broadcast()
	rs.mu.Unlock()
	for _, p := range pend {
		p.f.Fail(err)
	}
}

// Await blocks until an int query's or a sync's future resolves and
// returns its value. Replies arrive on the mux's reader goroutine, so
// awaiting never drives the connection — and a dead connection fails
// every pending future, so Await cannot hang on one. On a bytes query's
// future it returns an error naming AwaitBytes and releases the reply
// payload it refuses, so a mistaken Await does not pin its slab.
func (rs *RemoteSession) Await(f *future.Future) (int64, error) {
	v, err := f.Get()
	if err != nil {
		return 0, err
	}
	n, ok := v.(int64)
	if !ok {
		if p, isBytes := v.([]byte); isBytes {
			Release(p)
		}
		return 0, fmt.Errorf("remote: Await on a future of %T; a bytes query's future takes AwaitBytes", v)
	}
	return n, nil
}

// AwaitBytes blocks until a bytes query's future resolves and returns
// its payload. The payload is slab-owned: the caller must Release it
// when done, as must any other reader of the future (Get, OnComplete).
// On an int query's or a sync's future it returns an error naming
// Await.
func (rs *RemoteSession) AwaitBytes(f *future.Future) ([]byte, error) {
	v, err := f.Get()
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, nil
	}
	p, ok := v.([]byte)
	if !ok {
		return nil, fmt.Errorf("remote: AwaitBytes on a future of %T; an int query's or a sync's future takes Await", v)
	}
	return p, nil
}

// Flush blocks until every pipelined future handed out so far has
// resolved. Per-query failures stay in their futures (collect them
// with Await); Flush itself reports a dead connection or a recorded
// block-level failure (see Separate).
func (rs *RemoteSession) Flush() error {
	rs.mu.Lock()
	fs := make([]*future.Future, 0, len(rs.pending))
	for _, p := range rs.pending {
		fs = append(fs, p.f)
	}
	rs.mu.Unlock()
	for _, f := range fs {
		f.Get() //nolint:errcheck // per-query errors surface via Await
	}
	if err := rs.takeBlockErr(); err != nil {
		return err
	}
	return rs.m.Err()
}

// Session is a remote separate block in progress. Each RemoteSession
// owns one, handed to every Separate body it runs.
type Session struct {
	rs *RemoteSession
}

// Separate opens a separate block on the named remote handler, runs
// body, and ends the block — all without a round-trip: BEGIN and END
// are fire-and-forget frames, so a whole block can sit in one batched
// write. Errors from the body's operations are returned; block-level
// failures (an unknown handler, a runtime shutting down) surface at
// the body's first synchronization point. A block with no
// synchronization point of its own still learns of such a failure —
// the server reports it with an id-0 ERROR frame — but asynchronously:
// at this Separate's return if the report has already arrived, else at
// the channel's next synchronization point (Flush, or a later block).
// Pipelined futures may resolve after the block ends; Await or Flush
// them on the session.
func (rs *RemoteSession) Separate(handler string, body func(s *Session) error) error {
	if err := rs.send(&frame{kind: fBegin, ch: rs.ch, name: handler}); err != nil {
		return err
	}
	bodyErr := body(&rs.blk)
	endErr := rs.send(&frame{kind: fEnd, ch: rs.ch})
	// Consume any block-level failure: either it belongs to this block
	// (fire-and-forget BEGIN/CALL misfire) or to an earlier one whose
	// report raced past its Separate — stale either way once returned.
	blockErr := rs.takeBlockErr()
	if bodyErr != nil {
		return bodyErr
	}
	if blockErr != nil {
		return blockErr
	}
	return endErr
}

// Call logs an asynchronous call of the named procedure (see
// Server.Expose). Like a local Session.Call it does not wait for
// execution — it does not even pay a direct socket write: the frame
// joins the connection's current batch. On the wire it is a CALLB
// whose payload is args as zigzag varints, encoded into the session's
// scratch buffer. Admission is credit-bounded: at a zero window Call
// waits until the server's replenishment arrives, so a block cannot
// outrun the server by more than the window.
func (s *Session) Call(fn string, args ...int64) error {
	return s.CallBytes(fn, s.rs.ints(args))
}

// QueryAsync logs the named procedure as a pipelined query: it returns
// a future and pays no round-trip. Like Query it observes every
// previously logged call of this block; each of the connection's
// sessions can keep up to its credit window of requests in flight at
// once — past that, QueryAsync waits until completions replenish the
// window. Resolve the future with Await (or Flush): it completes with
// the result as an int64, decoded by the mux reader; its error mirrors
// Query's.
func (s *Session) QueryAsync(fn string, args ...int64) (*future.Future, error) {
	return s.rs.pipelined(&frame{kind: fQueryB, ch: s.rs.ch, name: fn, data: s.rs.ints(args)}, true)
}

// ints encodes int veneer arguments into the session's scratch buffer;
// the frame carrying them is encoded onto the connection's batch before
// send returns, so the next request reuses the buffer.
func (rs *RemoteSession) ints(args []int64) []byte {
	rs.scratch = appendInts(rs.scratch[:0], args)
	return rs.scratch
}

// pipelined acquires a request credit, registers a fresh future,
// stamps its id onto fr, sends the frame, and seals the registration
// against the teardown race. It is the one implementation of the
// reply-expected send path (QueryAsync, QueryBytesAsync, Sync); ints
// has the reader decode the reply to an int64. A failed send does not
// return the consumed credit: the frame never reached the server, so
// no replenishment will come — but every such failure is terminal for
// the channel anyway.
func (rs *RemoteSession) pipelined(fr *frame, ints bool) (*future.Future, error) {
	if err := rs.acquireCredit(); err != nil {
		return nil, err
	}
	var t0 int64
	if obs.Enabled() {
		t0 = obs.Now()
	}
	f := future.New()
	id, err := rs.register(pendingReq{f, ints})
	if err != nil {
		return nil, err
	}
	fr.id = id
	if err := rs.send(fr); err != nil {
		rs.unregister(id)
		return nil, err
	}
	if err := rs.sealRegistration(id, f); err != nil {
		return nil, err
	}
	rs.m.roundTrips.Add(1)
	if t0 != 0 {
		// Round-trip measured send→resolve; the callback runs on the mux
		// reader and must stay non-blocking, which Observe/Emit are. The
		// closure is only allocated while recording.
		ch := rs.ch
		f.OnComplete(func(any, error) {
			d := obs.Now() - t0
			roundTripHist.Observe(d)
			obs.Emit(obs.KindRoundTrip, uint64(ch), d)
		})
	}
	return f, nil
}

// CallBytes logs an asynchronous call of the named bytes procedure
// (see Server.ExposeBytes) with an opaque payload. The payload is
// encoded into the connection's batch before CallBytes returns, so the
// caller keeps ownership of p and may reuse it immediately — nothing
// is retained and nothing beyond the wire copy is allocated. Admission
// is credit-bounded exactly like Call, which is CallBytes underneath.
func (s *Session) CallBytes(fn string, p []byte) error {
	if err := s.rs.acquireCredit(); err != nil {
		return err
	}
	return s.rs.send(&frame{kind: fCallB, ch: s.rs.ch, name: fn, data: p})
}

// QueryBytesAsync logs the named bytes procedure as a pipelined query:
// the returned future resolves to the reply payload ([]byte). Like
// QueryAsync it pays no round-trip and observes every previously
// logged call of this block. The request payload p is encoded before
// return (the caller keeps ownership); the reply payload is slab-owned
// and must be Released by whoever takes it from the future (AwaitBytes,
// or the future's own Get or OnComplete).
func (s *Session) QueryBytesAsync(fn string, p []byte) (*future.Future, error) {
	return s.rs.pipelined(&frame{kind: fQueryB, ch: s.rs.ch, name: fn, data: p}, false)
}

// QueryBytes runs the named bytes procedure synchronously: one write,
// one demultiplexed reply, the reply payload returned. The caller must
// Release the returned payload.
func (s *Session) QueryBytes(fn string, p []byte) ([]byte, error) {
	f, err := s.QueryBytesAsync(fn, p)
	if err != nil {
		return nil, err
	}
	return s.rs.AwaitBytes(f)
}

// Query runs the named procedure synchronously and returns its result;
// it observes every previously logged call of this block. On the wire
// it is QueryAsync + Await: one write, one demultiplexed reply.
func (s *Session) Query(fn string, args ...int64) (int64, error) {
	f, err := s.QueryAsync(fn, args...)
	if err != nil {
		return 0, err
	}
	return s.rs.Await(f)
}

// Sync brings the remote handler to a quiescent point on this block's
// private queue: when Sync returns, every previously logged call has
// executed. It is a SYNC frame, logged on the server like any request
// and answered by the handler with an empty REPLYB once it reaches it.
func (s *Session) Sync() error {
	f, err := s.rs.pipelined(&frame{kind: fSync, ch: s.rs.ch}, true)
	if err != nil {
		return err
	}
	_, err = s.rs.Await(f)
	return err
}
