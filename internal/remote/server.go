package remote

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"scoopqs/internal/core"
)

// Proc is a named procedure bound to handler-owned state. It runs under
// the handler's exclusion like any other logged call. It is the int64
// veneer over BytesProc: see Server.Expose.
type Proc func(args []int64) int64

// BytesProc is a named procedure taking and returning opaque byte
// payloads, the one shape every request has on the wire. It runs under
// the handler's exclusion like any other logged call.
//
// Ownership: the request payload is valid only for the duration of the
// invocation; the runtime releases its slab afterwards, so a proc that
// wants to keep bytes must copy them. The return value is encoded
// into the reply before that release, so it may alias the request
// (echo, sub-slice) or be freshly allocated; for a CallBytes-invoked
// proc the return is ignored and should be nil.
type BytesProc func(payload []byte) []byte

// Server exposes handlers of a local runtime to remote clients over
// the framed, multiplexed protocol. Each accepted connection is served
// by exactly two goroutines regardless of how many logical clients it
// carries: a reader that demultiplexes frames into per-channel
// core.Session state, all taken from one core.Client per connection,
// and a batching writer every reply funnels through. Frames are
// replayed onto real sessions, so remote clients get the same ordering
// and no-interleaving guarantees as local ones.
//
// The reader never waits on another peer — that is what lets one
// goroutine serve hundreds of channels — so the server requires a
// runtime with QoQ reservations (non-blocking enqueues) and logs every
// request, call, query or sync alike, as one asynchronous call on the
// channel's session: the handler runs it in private-queue order and,
// for a query or sync, writes the reply itself. In steady state the
// server allocates nothing per request: the call is a pooled request
// record, the payload a view into a recycled slab, and the reply is
// encoded straight into the writer's batch.
//
// The write path is bounded end to end. A handler's reply never waits:
// it is appended to the writer's batch whatever its size, and the
// per-channel credit window bounds those replies — a channel opens
// with window credits, known to both ends, each admitted request
// consumes one, and completions replenish them in batches. The
// reader's own frames — the id-0 error of a failing block, the error
// and credit of a request it fails on the spot — are the only output
// no credit gates; they wait at the writer's byte budget like any
// client producer, so a peer that stops reading is no longer read. A
// stalled or slow peer thus caps this server's batch at budget +
// window × live channels replies instead of growing without limit. A
// channel that overruns its window (a peer ignoring credits) is a
// protocol violation like any other: the connection is dropped, and
// every block it held is ENDed.
type Server struct {
	rt          *core.Runtime
	writeBudget int // each connection writer's batch cap; 0 = defaultWriteBudget (tests shrink it)

	// IdleTimeout, when positive, arms a read deadline on every
	// connection with a channel holding a reservation hostage — a block
	// open with no requests in flight, where the peer owes the next
	// frame — and a write deadline on every write to any connection. A
	// peer silent in that state, or leaving a write unread, for longer
	// is torn down with ErrPeerStalled, releasing its handlers. Quiet
	// connections with no open blocks, and peers merely waiting for
	// their replies, are never timed out. Set before Serve.
	IdleTimeout time.Duration

	mu       sync.Mutex
	handlers map[string]*core.Handler
	procs    map[string]map[string]BytesProc // copied on write: channels read theirs unlocked
	ln       net.Listener
	conns    map[net.Conn]struct{}
	writers  map[*connWriter]struct{}
	gone     writerStats // folded stats of finished connections
	closed   bool

	creditsGranted atomic.Uint64
	peerStalls     atomic.Uint64
	violations     atomic.Uint64
	bytesIn        atomic.Uint64

	wg sync.WaitGroup
}

// NewServer creates a server for rt's handlers. The runtime must use
// QoQ reservations (core.Config.QoQ): the demultiplexer's reader
// serves every channel of a connection and therefore must never block,
// which lock-based reservations cannot guarantee.
func NewServer(rt *core.Runtime) *Server {
	if !rt.Config().QoQ {
		panic("remote: Server requires a QoQ configuration (non-blocking reservations)")
	}
	return &Server{
		rt:       rt,
		handlers: map[string]*core.Handler{},
		procs:    map[string]map[string]BytesProc{},
		conns:    map[net.Conn]struct{}{},
		writers:  map[*connWriter]struct{}{},
	}
}

// Expose registers a handler under a public name with its int64
// procedures. Procedures must only touch state owned by h. Each is
// wrapped into a BytesProc that decodes its arguments from a payload of
// zigzag varints and encodes its result as one (the int veneer, see
// the package doc), and merged into the name's table like ExposeBytes.
func (s *Server) Expose(name string, h *core.Handler, procs map[string]Proc) {
	wrapped := make(map[string]BytesProc, len(procs))
	for fn, p := range procs {
		wrapped[fn] = func(payload []byte) []byte {
			args, ok := readInts(payload)
			if !ok {
				// A procedure failure, reported like any panic in one: an
				// ERROR for a query, a poisoned block for a call.
				panic("remote: malformed varint argument payload")
			}
			return appendInts(nil, []int64{p(args)})
		}
	}
	s.ExposeBytes(name, h, wrapped)
}

// ExposeBytes registers a handler's bytes procedures under a public
// name. Registrations under one name merge into one procedure table
// (Expose and ExposeBytes compose); a later procedure of the same name
// replaces an earlier one.
func (s *Server) ExposeBytes(name string, h *core.Handler, procs map[string]BytesProc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	table := make(map[string]BytesProc, len(s.procs[name])+len(procs))
	maps.Copy(table, s.procs[name])
	maps.Copy(table, procs)
	s.handlers[name] = h
	s.procs[name] = table
}

// ServerStats aggregates the write-path counters of every connection
// this server has carried (live and finished).
type ServerStats struct {
	Frames  uint64 // reply/credit frames accepted by the writers
	Flushes uint64 // conn.Write calls
	Dropped uint64 // frames accepted but never delivered (dead connections)

	FramesParked   uint64 // always 0: replies are appended, never parked; kept for existing readers
	MaxBatchBytes  uint64 // peak pending batch of one connection: ≤ budget + one frame, plus replies and their CREDITs, ≤ window per live channel
	CreditsGranted uint64 // request credits replenished

	WindowResizes      uint64 // always 0: the credit window is the constant window; kept for existing readers
	PeerStalls         uint64 // connections torn down by the idle deadline, read or write (ErrPeerStalled)
	ProtocolViolations uint64 // connections dropped for protocol violations (a credit overrun included)

	BytesIn  uint64 // payload bytes decoded from CALLB/QUERYB frames
	BytesOut uint64 // payload bytes encoded into REPLYB frames

	// Slab-pool snapshot at the Stats call; the pool is process-global
	// (shared with client-side readers in the same process).
	SlabsInUse uint64
	SlabReuses uint64
}

// Stats reports the server's aggregated write-path and flow-control
// counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	agg := s.gone
	for cw := range s.writers {
		agg.fold(cw.stats())
	}
	s.mu.Unlock()
	inUse, reuses := slabStats()
	return ServerStats{
		Frames:             agg.Frames,
		Flushes:            agg.Flushes,
		Dropped:            agg.Dropped,
		MaxBatchBytes:      agg.MaxBatchBytes,
		CreditsGranted:     s.creditsGranted.Load(),
		PeerStalls:         s.peerStalls.Load(),
		ProtocolViolations: s.violations.Load(),
		BytesIn:            s.bytesIn.Load(),
		BytesOut:           agg.Bytes,
		SlabsInUse:         inUse,
		SlabReuses:         reuses,
	}
}

// Serve accepts connections on ln until Close. It blocks; run it in a
// goroutine.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close stops accepting, closes live connections, and waits for the
// per-connection goroutines. Channels with open blocks are ENDed so
// their handlers are released; queries already logged still execute
// (the runtime drains accepted work), their replies are dropped.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}

// svChan is the server end of one logical client: a demultiplexed
// channel and, while a block is open, the session of its reservation,
// taken from the connection's client.
type svChan struct {
	sess  *core.Session // non-nil while a healthy block holds the handler
	procs map[string]BytesProc

	// closed is set by the reader at CLOSE: a request completing after
	// it ships neither reply nor credit.
	closed atomic.Bool

	// outstanding counts admitted-but-uncompleted requests (the credit
	// window in use); pendGrant accumulates completions awaiting a
	// batched CREDIT replenishment. Both are touched by the reader and
	// by requests completing on handler/pool goroutines.
	outstanding atomic.Int64
	pendGrant   atomic.Int64

	// errmsg poisons an open block whose BEGIN or CALLB failed (unknown
	// handler/procedure, reservation after shutdown): calls are
	// dropped, queries and syncs reply with the error, END clears it.
	// The client sees exactly what a local poisoned session shows — the
	// failure at every synchronization point until the block ends.
	errmsg string
}

// open reports whether the channel is inside a BEGIN..END bracket
// (healthy or poisoned).
func (sc *svChan) open() bool { return sc.sess != nil || sc.errmsg != "" }

// end closes the channel's block, if any: a healthy reservation logs
// its END on cl, the connection's client (releasing the handler), and
// the bracket state is cleared, so a second end is a no-op. Runs on the
// reader.
func (sc *svChan) end(cl *core.Client) {
	if sc.sess != nil {
		cl.End(sc.sess)
	}
	sc.sess, sc.procs, sc.errmsg = nil, nil, ""
}

// serverConn is the per-connection demultiplexer state shared by the
// reader and the requests it logs.
//
// cl is the one core.Client of all the connection's channels: the
// reader is the only goroutine that reserves, logs requests or ENDs for
// any of them (a request running on a handler reads only its session's
// Err and Handler). Channels with blocks open on one handler at once
// get a session each, and a BEGIN takes any idle one of the handler
// (Client.session), so sessions scale with blocks open at once, not
// with channels.
type serverConn struct {
	s     *Server
	cw    *connWriter
	cl    *core.Client
	chans map[uint32]*svChan
}

// newServerConn is the demultiplexer state of a fresh connection
// writing through cw.
func newServerConn(s *Server, cw *connWriter) *serverConn {
	return &serverConn{s: s, cw: cw, cl: s.rt.NewClient(), chans: map[uint32]*svChan{}}
}

// serveConn demultiplexes one connection's frames onto local sessions.
func (s *Server) serveConn(conn net.Conn) {
	// A reply-write failure closes the connection so the reader
	// unwedges; handlers still running requests keep feeding the writer
	// harmlessly (dead writers drop frames).
	idle := s.IdleTimeout
	var w io.Writer = conn
	if idle > 0 {
		w = deadlineWriter{conn, idle}
	}
	cw := newConnWriter(w, s.writeBudget, func(err error) {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			s.peerStalls.Add(1) // ErrPeerStalled: output left unread
		}
		conn.Close()
	})
	s.mu.Lock()
	s.writers[cw] = struct{}{}
	s.mu.Unlock()
	c := newServerConn(s, cw)
	fr := newFrameReader(conn)
	defer fr.close()
	defer func() {
		// Client vanished (or Close tore the conn down): END every open
		// block so no handler stays reserved by a dead channel.
		for _, sc := range c.chans {
			sc.end(c.cl)
		}
		conn.Close()
		cw.close()
		s.mu.Lock()
		delete(s.writers, cw)
		s.gone.fold(cw.stats())
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	var f frame
	for {
		if idle > 0 {
			// Only a busy connection (open blocks or admitted requests)
			// is held to the deadline: an idle peer with nothing
			// reserved costs nothing and may stay connected forever.
			if c.busy() {
				conn.SetReadDeadline(time.Now().Add(idle)) //nolint:errcheck // enforcement is best effort
			} else {
				conn.SetReadDeadline(time.Time{}) //nolint:errcheck
			}
		}
		if err := fr.readFrame(&f); err != nil {
			if idle > 0 && errors.Is(err, os.ErrDeadlineExceeded) {
				if fr.atBoundary() && !c.busy() {
					// The deadline was armed while busy, but the work
					// drained before it fired and no frame bytes were
					// consumed: the stream is still in sync, keep going.
					continue
				}
				s.peerStalls.Add(1) // ErrPeerStalled: silent mid-activity
			}
			if errors.Is(err, ErrProtocol) {
				// Decoder-level violations (oversized fields, unknown
				// kinds, an intern-table overflow) count like the
				// demux-level ones handleFrame reports.
				s.violations.Add(1)
			}
			return // connection torn down (or stream corrupt): one path
		}
		if !c.handleFrame(&f) {
			s.violations.Add(1)
			return // unrecoverable protocol violation: drop the connection
		}
	}
}

// deadlineWriter is a connection whose every Write must finish within
// d: the write deadline of Server.IdleTimeout.
type deadlineWriter struct {
	net.Conn
	d time.Duration
}

func (w deadlineWriter) Write(p []byte) (int, error) {
	w.SetWriteDeadline(time.Now().Add(w.d)) //nolint:errcheck // enforcement is best effort
	return w.Conn.Write(p)
}

// busy reports whether a silent peer is holding work hostage: a
// channel inside a block with nothing in flight, where the peer owes
// the next frame (more requests, or the END releasing the handler).
// Channels with outstanding requests do NOT count — a pipelining
// client legitimately goes write-silent while its replies execute, and
// the ball is in this server's court until they complete.
func (c *serverConn) busy() bool {
	for _, sc := range c.chans {
		if sc.open() && sc.outstanding.Load() == 0 {
			return true
		}
	}
	return false
}

// send ships f unless a CLOSE retired sc. The reader waits at the
// writer's byte budget (wait), like any client producer: the output
// it waits on is its own peer's. A request running on a handler
// appends past the budget instead, since a handler serves every
// connection; the credit window bounds what it appends.
func (c *serverConn) send(sc *svChan, f *frame, wait bool) bool {
	switch {
	case sc.closed.Load():
		return false
	case wait:
		return c.cw.frame(f)
	default:
		return c.cw.frameNoWait(f)
	}
}

// reply ships a REPLYB (or, for a non-nil err, an ERROR) for (ch, id).
// The payload is encoded into the batch before this returns, so the
// caller may release whatever out aliases immediately afterwards.
func (c *serverConn) reply(sc *svChan, ch uint32, id uint64, out []byte, err error, wait bool) {
	f := frame{kind: fReplyB, ch: ch, id: id, data: out}
	if err != nil {
		f = frame{kind: fError, ch: ch, id: id, name: err.Error()}
	}
	c.send(sc, &f, wait) // false: the connection died or the channel closed
}

// poison marks the open block failed and ships the id-0 block-level
// ERROR, so even a fire-and-forget block (no query or sync of its own)
// learns its work was dropped; queries and syncs logged before the
// block ends keep replying with the same message per id. It runs on
// the reader, so it waits at the byte budget: BEGIN and CALLB are not
// credit-gated, and a peer failing blocks without reading is not read
// either.
func (c *serverConn) poison(sc *svChan, ch uint32, msg string) {
	sc.errmsg = msg
	c.send(sc, &frame{kind: fError, ch: ch, id: 0, name: msg}, true)
}

// credit returns one unit of the channel's window after a request
// completed (executed, replied, or dropped by a poisoned block) and
// replenishes the client in CREDIT frames of window/8 completions.
// Only completions are granted back, so the client's balance never
// exceeds window. Runs on the reader (wait) or on handler/pool
// goroutines.
func (c *serverConn) credit(sc *svChan, ch uint32, wait bool) {
	sc.outstanding.Add(-1)
	if sc.pendGrant.Add(1) < window/8 {
		return
	}
	if n := sc.pendGrant.Swap(0); n > 0 {
		if c.send(sc, &frame{kind: fCredit, ch: ch, id: uint64(n)}, wait) {
			c.s.creditsGranted.Add(uint64(n))
		}
	}
}

// handleFrame processes one client frame. It reports false on a
// protocol violation, which is connection-fatal: every channel of a
// connection belongs to the one peer that broke the contract, and the
// framing layer has no way to resynchronize with it.
func (c *serverConn) handleFrame(f *frame) bool {
	s := c.s
	sc := c.chans[f.ch]
	switch f.kind {
	case fBegin:
		if sc == nil {
			if len(c.chans) >= maxChannels {
				return false // more live channels than a connection may hold
			}
			// A fresh channel already holds a full window of credits:
			// the client opens with window, so nothing is advertised.
			sc = &svChan{}
			c.chans[f.ch] = sc
		}
		if sc.open() {
			return false // BEGIN inside an open block
		}
		s.mu.Lock()
		h := s.handlers[f.name]
		procs := s.procs[f.name]
		s.mu.Unlock()
		if h == nil {
			c.poison(sc, f.ch, fmt.Sprintf("unknown handler %q", f.name))
			return true
		}
		sess, err := c.cl.TryReserve(h)
		if err != nil {
			c.poison(sc, f.ch, err.Error())
			return true
		}
		sc.sess, sc.procs = sess, procs

	case fEnd:
		if sc == nil || !sc.open() {
			return false // END without a block
		}
		sc.end(c.cl)

	case fClose:
		// Channel retired, possibly mid-block: END the block so the
		// handler is released, mark it closed (completions still in
		// flight ship nothing), then forget the channel. A frame for
		// this channel id never arrives again (ids are not reused).
		if sc != nil {
			sc.end(c.cl)
			sc.closed.Store(true)
			delete(c.chans, f.ch)
		}

	case fCallB, fQueryB, fSync:
		return c.request(sc, f)

	default:
		// A server->client, retired or unknown kind from the client; a
		// REPLYB's payload still goes back to its slab.
		Release(f.data)
		return false
	}
	return true
}

// request is the one path of the three credit-consuming kinds (CALLB,
// QUERYB, SYNC): checked against the block bracket, charged to the
// window, failed right here on the reader if the block is poisoned or
// the procedure unknown, and only then logged onto the session as one
// call. Every path releases the request's payload, and every admitted
// request returns its credit.
func (c *serverConn) request(sc *svChan, f *frame) bool {
	if sc == nil || !sc.open() {
		Release(f.data)
		return false // request outside a block
	}
	if n := len(f.data); n > 0 {
		c.s.bytesIn.Add(uint64(n))
	}
	if sc.outstanding.Add(1) > window {
		// Only a peer ignoring the window gets here (a Mux takes a
		// credit before every request): the bound on the replies
		// handlers append past the byte budget.
		Release(f.data)
		return false
	}
	msg, proc := sc.errmsg, sc.procs[f.name]
	if f.kind == fSync {
		proc = nil // a barrier runs nothing (its frame names no procedure)
	} else if msg == "" && proc == nil {
		msg = fmt.Sprintf("unknown procedure %q", f.name)
		if f.kind == fCallB {
			// No reply to carry it: poison the block, and the error
			// surfaces at the next synchronization point, like a
			// handler-side failure.
			c.poison(sc, f.ch, msg)
		}
	}
	if msg != "" {
		Release(f.data)
		if f.kind != fCallB { // a call is dropped, like on a local poisoned session
			c.reply(sc, f.ch, f.id, nil, errors.New(msg), true)
		}
		c.credit(sc, f.ch, true)
		return true
	}

	// Logged from here on, as one call run in private-queue order (all a
	// reply needs to keep the block's order), carrying copies from f,
	// which the reader reuses, in a pooled record (see request.run).
	r, _ := requestPool.Get().(*request)
	if r == nil {
		r = new(request)
		r.fn = r.run
	}
	r.c, r.sc, r.sess, r.proc = c, sc, sc.sess, proc
	r.payload, r.id, r.ch, r.kind = f.data, f.id, f.ch, f.kind
	sc.sess.CallAlways(r.fn)
	return true
}

// request is one logged CALLB, QUERYB or SYNC, from the reader to its
// run on the handler. Records come from requestPool, so a request
// costs no allocation in steady state; fn is the record's run method
// value, bound once when the record is made, and what CallAlways logs.
type request struct {
	c       *serverConn
	sc      *svChan
	sess    *core.Session
	proc    BytesProc // nil for SYNC
	payload []byte
	id      uint64
	ch      uint32
	kind    frameKind
	fn      func()
}

// requestPool recycles request records. It has no New, since one that
// bound run would be an initialization cycle: serverConn.request makes
// a missing record itself.
var requestPool sync.Pool

// run executes the request on the handler. It first copies the record
// out and puts it back, zeroed, so a pooled record never holds a
// payload, a session or a channel. CallAlways runs it even on a
// poisoned session: the proc is skipped, a query or sync answers the
// session's error. A panicking proc is answered with core's
// *HandlerError, then re-raised so core poisons the session. The reply
// goes out before the payload is released (the return may alias it),
// and the credit comes back last: a replenished client's next request
// never overtakes the reply.
func (r *request) run() {
	c, sc, sess, proc := r.c, r.sc, r.sess, r.proc
	payload, id, ch, kind := r.payload, r.id, r.ch, r.kind
	*r = request{fn: r.fn}
	requestPool.Put(r)

	var out []byte
	err := sess.Err()
	defer func() {
		rec := recover()
		if rec != nil {
			err = &core.HandlerError{Handler: sess.Handler().Name(), Value: rec}
		}
		if kind != fCallB {
			c.reply(sc, ch, id, out, err, false)
		}
		c.done(sc, ch, payload)
		if rec != nil {
			panic(rec)
		}
	}()
	if err == nil && proc != nil {
		out = proc(payload)
	}
}

// done completes a logged request: its payload goes back to its slab
// and its credit to the window.
func (c *serverConn) done(sc *svChan, ch uint32, payload []byte) {
	Release(payload)
	c.credit(sc, ch, false)
}
