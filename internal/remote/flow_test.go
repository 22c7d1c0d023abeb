package remote

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scoopqs/internal/core"
	"scoopqs/internal/future"
)

// flowModes are the pool widths the full-stack flow-control suite runs
// under: Workers 1 forces maximal multiplexing of the completion
// callbacks, Workers 4 exercises the work-stealing substrate.
var flowModes = []struct {
	name string
	cfg  core.Config
}{
	{"pooled1", core.ConfigAll.WithWorkers(1)},
	{"pooled4", core.ConfigAll.WithWorkers(4)},
}

// pipeListener adapts net.Pipe to net.Listener: every dial hands the
// server end to Accept. net.Pipe has no kernel buffering, so a peer
// that stops reading stalls the other end's very next Write — the
// sharpest possible version of the slow-peer scenario.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial returns the client end of a fresh pipe whose server end is
// handed to Accept.
func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	c, s := net.Pipe()
	select {
	case l.conns <- s:
	case <-time.After(5 * time.Second):
		t.Fatal("server never accepted the pipe connection")
	}
	return c
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// stallConn delays every Read until release is closed: from the peer's
// point of view, a connected client that has simply stopped reading.
type stallConn struct {
	net.Conn
	release <-chan struct{}
}

func (c stallConn) Read(p []byte) (int, error) {
	<-c.release
	return c.Conn.Read(p)
}

// TestWriterBudgetBoundsBatch drives a connWriter against a net.Pipe
// peer that reads exactly one batch and then stops: the pending batch
// must stay at the configured budget (PR 4 grew it with everything
// produced), blocking producers must park, and kill() must unwedge
// them.
func TestWriterBudgetBoundsBatch(t *testing.T) {
	const budget = 4 << 10
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()

	// Absorb one initial flush, then stop reading: the writer's next
	// Write blocks forever, and everything produced meanwhile piles
	// into the pending batch.
	firstRead := make(chan struct{})
	go func() {
		buf := make([]byte, 32<<10)
		srv.Read(buf) //nolint:errcheck // stalled peer: one read, then silence
		close(firstRead)
	}()

	cw := newConnWriter(cli, budget, nil)
	f := frame{kind: fCallB, ch: 1, name: "spam", data: ints(1, 2, 3, 4)}
	if !cw.frame(&f) {
		t.Fatal("first frame rejected")
	}
	<-firstRead

	// A producer hammering the writer must park at the budget rather
	// than grow the batch: run it in a goroutine and watch the stats.
	producerDone := make(chan int)
	go func() {
		sent := 0
		for cw.frame(&f) {
			sent++
		}
		producerDone <- sent
	}()

	deadline := time.Now().Add(10 * time.Second)
	for cw.stats().Stalls == 0 {
		if time.Now().After(deadline) {
			t.Fatal("producer never stalled at the budget")
		}
		time.Sleep(time.Millisecond)
	}
	st := cw.stats()
	frameSize := uint64(len(appendFrame(nil, &f)))
	if st.MaxBatchBytes > budget+frameSize {
		t.Fatalf("batch grew to %d bytes, budget %d (+%d slack)", st.MaxBatchBytes, budget, frameSize)
	}

	// kill must release the parked producer promptly (frame -> false),
	// and closing the pipe unwedges the goroutine blocked in Write.
	cw.kill()
	cli.Close()
	select {
	case sent := <-producerDone:
		if sent == 0 {
			t.Fatal("producer parked before appending anything")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("producer still parked after kill()")
	}
	if st := cw.stats(); st.Dropped == 0 {
		t.Fatalf("killed writer reported no dropped frames: %+v", st)
	}
	select {
	case <-cw.done:
	case <-time.After(10 * time.Second):
		t.Fatal("writer goroutine did not exit after kill + conn close")
	}
}

// TestWriterNoWaitAppendsPastBudget is the non-blocking producer path:
// past the budget, frameNoWait must append without stalling and
// deliver every frame, in order, once the peer drains.
func TestWriterNoWaitAppendsPastBudget(t *testing.T) {
	const budget = 1 << 10
	cli, srv := net.Pipe()
	defer cli.Close()

	release := make(chan struct{})
	type readResult struct {
		ids []uint64
		err error
	}
	readerDone := make(chan readResult, 1)
	const total = 1000
	go func() {
		<-release
		fr := newFrameReader(srv)
		var f frame
		var ids []uint64
		for len(ids) < total {
			if err := fr.readFrame(&f); err != nil {
				readerDone <- readResult{ids, err}
				return
			}
			ids = append(ids, f.id)
			Release(f.data)
		}
		readerDone <- readResult{ids, nil}
	}()

	cw := newConnWriter(cli, budget, nil)
	for i := 0; i < total; i++ {
		if !cw.frameNoWait(&frame{kind: fReplyB, ch: 1, id: uint64(i), data: ints(7)}) {
			t.Fatalf("frame %d rejected by a healthy writer", i)
		}
	}
	if st := cw.stats(); st.MaxBatchBytes <= budget || st.Stalls != 0 {
		t.Fatalf("batch peaked at %d bytes with %d stalls: want past budget %d with none", st.MaxBatchBytes, st.Stalls, budget)
	}

	close(release)
	select {
	case r := <-readerDone:
		if r.err != nil {
			t.Fatalf("reader failed after %d frames: %v", len(r.ids), r.err)
		}
		for i, id := range r.ids {
			if id != uint64(i) {
				t.Fatalf("frame %d arrived with id %d: frames past the budget reordered", i, id)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("frames past the budget never delivered after the peer drained")
	}
	cw.close()
}

// replyBound is the most a server connection's pending batch holds
// under an honest peer: the byte budget, plus, for each of sessions
// live channels, a window of replies no larger than reply and the
// CREDIT frames giving their credits back, one per window/8
// completions.
func replyBound(budget, sessions int, reply *frame) uint64 {
	credit := appendFrame(nil, &frame{kind: fCredit, ch: reply.ch, id: window / 8})
	return uint64(budget + sessions*(window*len(appendFrame(nil, reply))+8*len(credit)))
}

// TestSlowPeerBoundsServerWriter is the end-to-end memory-bound test:
// a mux client stalls its reads mid-burst (net.Pipe: the server's
// writer wedges on its next flush), while its sessions keep pipelining
// queries. The server's pending batch grows past the write budget with
// replies, but no further than the credit window lets it (replyBound),
// and everything must complete once the client resumes reading. Runs
// at Workers ∈ {1, 4}; the paired subtest kills the connection
// mid-stall instead and requires a clean unwedge.
func TestSlowPeerBoundsServerWriter(t *testing.T) {
	// The budget sits far below the window's reply volume, so the
	// replies, not the budget, fill the batch.
	const (
		budget   = 256
		sessions = 2
		qper     = 2048
	)
	for _, m := range flowModes {
		t.Run(m.name, func(t *testing.T) {
			for _, kill := range []bool{false, true} {
				name := "drain"
				if kill {
					name = "kill"
				}
				t.Run(name, func(t *testing.T) {
					rt := core.New(m.cfg)
					srv := NewServer(rt)
					srv.writeBudget = budget
					for i := 0; i < sessions; i++ {
						h := rt.NewHandler("h")
						c := new(int64)
						srv.Expose(handlerName(i), h, map[string]Proc{
							"add": func(a []int64) int64 { *c += a[0]; return *c },
						})
					}
					ln := newPipeListener()
					go srv.Serve(ln)
					defer func() {
						srv.Close()
						rt.Shutdown()
					}()

					release := make(chan struct{})
					conn := ln.dial(t)
					mux := NewMux(stallConn{Conn: conn, release: release})
					defer mux.Close()

					var futs [sessions][]*future.Future
					var wg sync.WaitGroup
					for i := 0; i < sessions; i++ {
						i := i
						rs := mux.NewSession()
						wg.Add(1)
						go func() {
							defer wg.Done()
							futs[i] = make([]*future.Future, 0, qper)
							rs.Separate(handlerName(i), func(s *Session) error { //nolint:errcheck // surfaced via futures
								for q := 0; q < qper; q++ {
									f, err := s.QueryAsync("add", 1)
									if err != nil {
										return err
									}
									futs[i] = append(futs[i], f)
								}
								return nil
							})
						}()
					}

					// Wait until the stall visibly engaged the flow
					// control: both sessions spent their windows.
					bound := replyBound(budget, sessions, &frame{kind: fReplyB, ch: sessions, id: qper, data: ints(qper)})
					deadline := time.Now().Add(20 * time.Second)
					for srv.Stats().MaxBatchBytes <= budget || mux.Stats().CreditStalls < sessions {
						if time.Now().After(deadline) {
							t.Fatalf("windows never spent; server %+v, mux %+v", srv.Stats(), mux.Stats())
						}
						time.Sleep(time.Millisecond)
					}
					if st := srv.Stats(); st.MaxBatchBytes > bound {
						t.Fatalf("server batch grew to %d bytes, credit bound %d", st.MaxBatchBytes, bound)
					}

					if kill {
						// Never resume reading: tear the pipe down and
						// require every future to resolve (with an
						// error) and the server to unwedge. The stall
						// gate opens onto a dead pipe, so the reader
						// observes the close rather than replies.
						conn.Close()
						close(release)
					} else {
						close(release)
					}
					wg.Wait()
					for i := range futs {
						for j, f := range futs[i] {
							select {
							case <-f.Done():
							case <-time.After(20 * time.Second):
								t.Fatalf("session %d future %d still pending", i, j)
							}
							if !kill {
								v, err := f.Get()
								if err != nil {
									t.Fatalf("session %d future %d failed: %v", i, j, err)
								}
								if v.(int64) != int64(j+1) {
									t.Fatalf("session %d future %d = %d, want %d", i, j, v, j+1)
								}
							}
						}
					}
					if st := srv.Stats(); !kill && st.MaxBatchBytes > bound {
						t.Fatalf("server batch peaked at %d bytes after drain, credit bound %d", st.MaxBatchBytes, bound)
					}
				})
			}
		})
	}
}

// TestMuxNewSessionAfterCloseFailsFast is the regression for the
// NewSession-on-a-dead-mux hang: a session created after Close was
// registered in m.chans, but no teardown sweep would ever fail its
// pending futures, so QueryAsync + Await hung forever.
func TestMuxNewSessionAfterCloseFailsFast(t *testing.T) {
	addr, _, shutdown := startServer(t)
	defer shutdown()

	mux, err := DialMux("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := mux.Close(); err != nil {
		t.Fatal(err)
	}

	rs := mux.NewSession()
	done := make(chan error, 1)
	go func() {
		f, err := (&Session{rs: rs}).QueryAsync("get")
		if err == nil {
			_, err = rs.Await(f)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("err = %v, want the mux's terminal close error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("QueryAsync/Await on a post-Close session hung")
	}

	// The high-level paths fail fast too, with the same terminal error.
	if err := rs.Separate("counter", func(s *Session) error { return nil }); err == nil {
		t.Fatal("Separate on a post-Close session succeeded")
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("closing a dead session: %v", err)
	}
}

// failAfterConn is a net.Conn whose Write fails once the gate closes
// and whose Read blocks until Close — a peer that dies without the
// reader ever noticing on its own.
type failAfterConn struct {
	mu       sync.Mutex
	failWr   bool
	closedCh chan struct{}
	once     sync.Once
}

func newFailAfterConn() *failAfterConn {
	return &failAfterConn{closedCh: make(chan struct{})}
}

func (c *failAfterConn) failWrites() {
	c.mu.Lock()
	c.failWr = true
	c.mu.Unlock()
}

func (c *failAfterConn) Read(p []byte) (int, error) {
	<-c.closedCh
	return 0, io.EOF
}

func (c *failAfterConn) Write(p []byte) (int, error) {
	select {
	case <-c.closedCh:
		return 0, net.ErrClosed
	default:
	}
	c.mu.Lock()
	fail := c.failWr
	c.mu.Unlock()
	if fail {
		return 0, errors.New("peer vanished")
	}
	return len(p), nil
}

func (c *failAfterConn) Close() error {
	c.once.Do(func() { close(c.closedCh) })
	return nil
}

func (c *failAfterConn) LocalAddr() net.Addr              { return pipeAddr{} }
func (c *failAfterConn) RemoteAddr() net.Addr             { return pipeAddr{} }
func (c *failAfterConn) SetDeadline(time.Time) error      { return nil }
func (c *failAfterConn) SetReadDeadline(time.Time) error  { return nil }
func (c *failAfterConn) SetWriteDeadline(time.Time) error { return nil }

// TestWriteFailureFailsPendingPromptly is the silent-frame-loss
// regression: when a write fails, frames accepted since that write
// began are undeliverable — the writer must count them as dropped and
// the mux must fail the pending futures immediately, not wait for a
// reader that (here) would block forever.
func TestWriteFailureFailsPendingPromptly(t *testing.T) {
	conn := newFailAfterConn()
	mux := NewMux(conn)
	defer mux.Close()
	rs := mux.NewSession()

	// A healthy round: BEGIN flushes fine.
	if err := rs.send(&frame{kind: fBegin, ch: rs.ch, name: "counter"}); err != nil {
		t.Fatal(err)
	}
	flushDeadline := time.Now().Add(10 * time.Second)
	for mux.Stats().Flushes == 0 {
		if time.Now().After(flushDeadline) {
			t.Fatal("healthy BEGIN never flushed")
		}
		time.Sleep(time.Millisecond)
	}

	conn.failWrites()
	// The next frame is accepted into the batch; its write fails.
	f, err := (&Session{rs: rs}).QueryAsync("get")
	if err == nil {
		select {
		case <-f.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("pending future not failed after a write failure (reader never notices on this conn)")
		}
		if _, ferr := f.Get(); ferr == nil {
			t.Fatal("future completed with a value on a dead connection")
		}
	}
	if err := mux.Err(); err == nil {
		t.Fatal("mux not failed after a write failure")
	}

	deadline := time.Now().Add(10 * time.Second)
	for mux.Stats().Dropped == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("dropped frames not surfaced in stats: %+v", mux.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCreditWindowThrottlesAdmission pins the client-side admission
// gate: with the handler gated shut nothing completes, so no credit
// comes back — exactly window requests are admitted, and the next one
// parks (CreditStalls) until completions replenish the window. A Mux
// held at a full window is never judged an overrun.
func TestCreditWindowThrottlesAdmission(t *testing.T) {
	rt := core.New(core.ConfigAll)
	h := rt.NewHandler("gate")
	gate := make(chan struct{})
	var n int64
	srv := NewServer(rt)
	srv.Expose("gate", h, map[string]Proc{
		"add": func(a []int64) int64 { <-gate; n += a[0]; return n },
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		srv.Close()
		rt.Shutdown()
	}()

	mux, err := DialMux("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	rs := mux.NewSession()

	const total = window + 32
	var admitted atomic.Int64
	futs := make([]*future.Future, 0, total)
	var futsMu sync.Mutex
	blockDone := make(chan error, 1)
	go func() {
		blockDone <- rs.Separate("gate", func(s *Session) error {
			for i := 0; i < total; i++ {
				f, err := s.QueryAsync("add", 1)
				if err != nil {
					return err
				}
				futsMu.Lock()
				futs = append(futs, f)
				futsMu.Unlock()
				admitted.Add(1)
			}
			return nil
		})
	}()

	// With the handler gated, no replies flow, so no credits come back:
	// admission must stop at exactly the window.
	deadline := time.Now().Add(20 * time.Second)
	for admitted.Load() < window {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d in-window admissions went through", admitted.Load(), window)
		}
		time.Sleep(time.Millisecond)
	}
	for mux.Stats().CreditStalls == 0 {
		if time.Now().After(deadline) {
			t.Fatal("admission past the window never stalled")
		}
		time.Sleep(time.Millisecond)
	}
	if got := admitted.Load(); got != window {
		t.Fatalf("admitted %d requests on a %d-credit window", got, window)
	}

	// Open the gate: completions replenish credits, the parked
	// admission resumes, and every future resolves in order.
	close(gate)
	if err := <-blockDone; err != nil {
		t.Fatal(err)
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	futsMu.Lock()
	defer futsMu.Unlock()
	for i, f := range futs {
		v, err := rs.Await(f)
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if v != int64(i+1) {
			t.Fatalf("future %d = %d, want %d", i, v, i+1)
		}
	}
	if v := srv.Stats().ProtocolViolations; v != 0 {
		t.Fatalf("ProtocolViolations = %d, want 0", v)
	}
}

// TestCreditWaitReleasedOnCloseAndFailure pins the two ways out of a
// wait at zero credits besides a grant. On a Mux whose peer never
// answers, one more call past the window waits; closing its
// RemoteSession from another goroutine must release it with ErrClosed,
// and the connection dying under it with the mux's own error. Either
// way nothing is left behind.
func TestCreditWaitReleasedOnCloseAndFailure(t *testing.T) {
	for _, tc := range []struct {
		name    string
		release func(mux *Mux, conn *failAfterConn, rs *RemoteSession)
		want    func(mux *Mux) error
	}{
		{"Close", func(_ *Mux, _ *failAfterConn, rs *RemoteSession) { rs.Close() }, func(*Mux) error { return ErrClosed }},
		{"ConnDies", func(_ *Mux, conn *failAfterConn, _ *RemoteSession) { conn.Close() }, (*Mux).Err},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := takeLeakBaseline()
			conn := newFailAfterConn()
			mux := NewMux(conn)
			rs := mux.NewSession()
			s := &Session{rs: rs}
			for i := 0; i < window; i++ {
				if err := s.Call("spam", 1); err != nil {
					t.Fatalf("call %d inside the window: %v", i, err)
				}
			}
			admitted := make(chan error, 1)
			go func() { admitted <- s.Call("spam", 1) }()
			deadline := time.Now().Add(10 * time.Second)
			for mux.Stats().CreditStalls == 0 {
				if time.Now().After(deadline) {
					t.Fatal("the call past the window never waited")
				}
				time.Sleep(time.Millisecond)
			}
			select {
			case err := <-admitted:
				t.Fatalf("the call past the window returned %v with no credit granted", err)
			default:
			}

			go tc.release(mux, conn, rs)
			select {
			case err := <-admitted:
				if want := tc.want(mux); want == nil || !errors.Is(err, want) {
					t.Fatalf("released admission returned %v, want %v", err, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the admission still waits")
			}
			if got := mux.Stats().CreditStalls; got != 1 {
				t.Errorf("CreditStalls = %d, want 1: one count per wait", got)
			}
			mux.Close()
			if err := base.settle(nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPoisonFloodWaitsAtBudget closes the hole the credit window does
// not cover: BEGIN/END are not credit-gated, and a failing BEGIN ships
// an id-0 block-level ERROR, so a peer that stopped reading could cycle
// failing blocks and grow the server's output one error per block,
// forever. The reader ships those errors itself and waits at the byte
// budget, so the server stops reading such a peer instead.
func TestPoisonFloodWaitsAtBudget(t *testing.T) {
	base := takeLeakBaseline()
	rt := core.New(core.ConfigAll)
	srv := NewServer(rt)
	const budget = 128
	srv.writeBudget = budget
	ln := newPipeListener()
	go srv.Serve(ln)

	// Cycle failing blocks on one channel without ever reading: every
	// BEGIN poisons and ships an id-0 ERROR.
	conn := ln.dial(t)
	const cycles = 500
	var buf []byte
	for i := 0; i < cycles; i++ {
		buf = appendFrame(buf, &frame{kind: fBegin, ch: 1, name: "nonesuch"})
		buf = appendFrame(buf, &frame{kind: fEnd, ch: 1})
	}
	wrote := flood(conn, buf)
	expectReaderStalled(t, srv, wrote)
	poison := appendFrame(nil, &frame{kind: fError, ch: 1, name: `unknown handler "nonesuch"`})
	if st := srv.Stats(); st.MaxBatchBytes > budget+uint64(len(poison)) {
		t.Fatalf("batch grew to %d bytes over %d failing blocks, budget %d + one %d-byte error",
			st.MaxBatchBytes, cycles, budget, len(poison))
	}
	conn.Close()
	<-wrote
	srv.Close()
	if err := base.settle(rt); err != nil {
		t.Fatal(err)
	}
}

// flood writes buf to conn from a goroutine, since a server that stops
// reading leaves the write blocked, and reports its result.
func flood(conn net.Conn, buf []byte) <-chan error {
	wrote := make(chan error, 1)
	go func() {
		_, err := conn.Write(buf)
		wrote <- err
	}()
	return wrote
}

// expectReaderStalled waits until a reader of srv parks at its writer's
// byte budget — the only producer on a server that can — and checks
// that it stays there: the writers accept no more frames, and the
// peer's flood, wrote, does not finish.
func expectReaderStalled(t *testing.T, srv *Server, wrote <-chan error) {
	t.Helper()
	stalls := func() uint64 {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		var st writerStats
		for cw := range srv.writers {
			st.fold(cw.stats())
		}
		return st.Stalls
	}
	if !chaosPoll(func() bool { return stalls() > 0 }) {
		t.Fatalf("the reader never waited at the byte budget; stats %+v", srv.Stats())
	}
	frames := srv.Stats().Frames
	select {
	case err := <-wrote:
		t.Fatalf("the flood finished (err %v): the server kept reading past its byte budget", err)
	case <-time.After(50 * time.Millisecond):
	}
	if n := srv.Stats().Frames; n != frames {
		t.Fatalf("the writers took %d more frames from a stalled reader", n-frames)
	}
}

// TestBogusCreditGrantFailsMux pins the client-side grant validation:
// a zero CREDIT count, or one lifting the balance past the window, is a
// protocol violation that fails the mux — applied blindly, a huge count
// would go negative in int64 and park every admission forever with no
// error. A fresh session already holds a full window, so even a grant
// of 1 is past it.
func TestBogusCreditGrantFailsMux(t *testing.T) {
	for _, tc := range []struct {
		name  string
		count uint64
	}{
		{"zero", 0},
		{"huge", 1 << 63},
		{"past the window", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli, sv := net.Pipe()
			defer sv.Close()
			mux := NewMux(cli)
			defer mux.Close()
			rs := mux.NewSession()

			sv.SetWriteDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
			if _, err := sv.Write(appendFrame(nil, &frame{kind: fCredit, ch: rs.ch, id: tc.count})); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for mux.Err() == nil {
				if time.Now().After(deadline) {
					t.Fatal("mux accepted a bogus CREDIT grant")
				}
				time.Sleep(time.Millisecond)
			}
			if err := mux.Err(); !strings.Contains(err.Error(), "credit grant") {
				t.Fatalf("mux failed with %v, want a credit-grant protocol error", err)
			}
		})
	}
}

// TestPoisonResendsAfterDrain pins that every failing block ships its
// own id-0 ERROR, even one that fails while the writer is congested
// again with unrelated traffic — otherwise a fire-and-forget block
// would lose its work silently, the exact case the id-0 ERROR exists
// to report.
func TestPoisonResendsAfterDrain(t *testing.T) {
	rt := core.New(core.ConfigAll)
	defer rt.Shutdown()
	srv := NewServer(rt)

	cli, sv := net.Pipe()
	defer cli.Close()
	const budget = 64
	cw := newConnWriter(sv, budget, nil)
	defer cw.kill()
	defer sv.Close()
	c := newServerConn(srv, cw)

	cli.SetReadDeadline(time.Now().Add(20 * time.Second)) //nolint:errcheck
	fr := newFrameReader(cli)

	// readPoisons drains frames until n id-0 ERRORs whose message
	// contains marker have arrived.
	readPoisons := func(marker string, n int) {
		t.Helper()
		var f frame
		for seen := 0; seen < n; {
			if err := fr.readFrame(&f); err != nil {
				t.Fatalf("reading for %q after %d of %d: %v", marker, seen, n, err)
			}
			if f.kind == fError && f.id == 0 && strings.Contains(f.name, marker) {
				seen++
			}
		}
	}
	// failBlocks runs n failing blocks on the reader's path, from a
	// goroutine: past the byte budget it waits for this test to read.
	failBlocks := func(name string, n int) <-chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < n; i++ {
				if !c.handleFrame(&frame{kind: fBegin, ch: 1, name: name}) || !c.handleFrame(&frame{kind: fEnd, ch: 1}) {
					t.Error("failing block rejected")
					return
				}
			}
		}()
		return done
	}

	// A poison is 31 bytes against the 64-byte budget: eight failing
	// blocks wait at the budget, and each ships its own error.
	done := failBlocks("nonesuchA", 8)
	readPoisons("nonesuchA", 8)
	<-done

	// Re-congest with unrelated replies (nobody reading again), then
	// fail another block: its poison must still arrive.
	for i := 0; i < 8; i++ {
		c.reply(c.chans[1], 1, 99, nil, fmt.Errorf("padding padding padding padding padding %d", i), false)
	}
	if st := cw.stats(); st.MaxBatchBytes <= budget {
		t.Fatalf("could not re-congest the writer: batch peaked at %d bytes", st.MaxBatchBytes)
	}
	done = failBlocks("nonesuchB", 1)
	readPoisons("nonesuchB", 1)
	<-done
}

// TestCreditOverrunDropsConnection pins the server-side enforcement:
// a raw-frame peer that ignores CREDIT and floods past the window
// breaks the protocol, so its connection is dropped like any other
// violator's — the peer reads EOF with no verdict frame, the violation
// is counted, and the block it held is ENDed, so the gated handler
// drains the window of calls it admitted and serves the next client.
// A well-behaved Mux on a second connection still completes. The gate
// keeps completions from racing the flood and masking the overrun; the
// pipe transport makes the close read as EOF, never as a reset of
// unread bytes.
func TestCreditOverrunDropsConnection(t *testing.T) {
	for _, mode := range flowModes {
		t.Run(mode.name, func(t *testing.T) {
			rt := core.New(mode.cfg)
			gate := make(chan struct{})
			var ticks atomic.Int64
			srv := NewServer(rt)
			// Nothing completes behind the gate, so no credit comes back
			// during the flood.
			srv.Expose("gate", rt.NewHandler("gate"), map[string]Proc{
				"tick":  func([]int64) int64 { <-gate; ticks.Add(1); return 0 },
				"count": func([]int64) int64 { return ticks.Load() },
			})
			srv.Expose("calc", rt.NewHandler("calc"), map[string]Proc{
				"add": func(a []int64) int64 { return a[0] + a[1] },
			})
			ln := newPipeListener()
			go srv.Serve(ln)
			defer func() {
				srv.Close()
				rt.Shutdown()
			}()
			// Opened before the teardown above runs (defers are LIFO) so
			// the flood's logged calls can drain and Shutdown completes.
			var releaseOnce sync.Once
			release := func() { releaseOnce.Do(func() { close(gate) }) }
			defer release()

			conn := ln.dial(t)
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(20 * time.Second)) //nolint:errcheck

			var buf []byte
			buf = appendFrame(buf, &frame{kind: fBegin, ch: 1, name: "gate"})
			for i := 0; i < window+64; i++ {
				buf = appendFrame(buf, &frame{kind: fCallB, ch: 1, name: "tick"})
			}
			// The server hangs up at the first request past the window,
			// maybe before the tail of the flood is consumed.
			wrote := make(chan struct{})
			go func() { conn.Write(buf); close(wrote) }() //nolint:errcheck

			fr := newFrameReader(conn)
			defer fr.close()
			var f frame
			if err := fr.readFrame(&f); err != io.EOF {
				t.Fatalf("overrunning connection read (kind=0x%02x ch=%d id=%d, %v), want EOF", byte(f.kind), f.ch, f.id, err)
			}
			<-wrote
			deadline := time.Now().Add(10 * time.Second)
			for srv.Stats().ProtocolViolations == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if st := srv.Stats(); st.ProtocolViolations != 1 || st.CreditsGranted != 0 {
				t.Fatalf("ProtocolViolations = %d, CreditsGranted = %d; want 1 and 0", st.ProtocolViolations, st.CreditsGranted)
			}

			// Open the gate: the admitted window drains, and because the
			// teardown ENDed the block, the handler serves a new client
			// after exactly those calls.
			release()
			conn2 := ln.dial(t)
			conn2.SetDeadline(time.Now().Add(20 * time.Second)) //nolint:errcheck
			m := NewMux(conn2)
			defer m.Close()
			rs := m.NewSession()
			err := rs.Separate("gate", func(s *Session) error {
				n, err := s.Query("count")
				if err == nil && n != window {
					err = fmt.Errorf("count = %d after the drain, want the %d admitted calls", n, window)
				}
				return err
			})
			if err == nil {
				err = rs.Separate("calc", func(s *Session) error {
					v, err := s.Query("add", 1, 2)
					if err == nil && v != 3 {
						err = fmt.Errorf("add(1,2) = %d", v)
					}
					return err
				})
			}
			if err != nil {
				t.Fatalf("honest mux after the dropped connection: %v", err)
			}
		})
	}
}
