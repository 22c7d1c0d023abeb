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

// TestWriterDeferredParksPastBudget is the non-blocking producer path:
// past the budget, frameDeferred must park frames (keeping the batch
// bounded) and deliver every one of them, in order, once the peer
// drains.
func TestWriterDeferredParksPastBudget(t *testing.T) {
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
	var q chanQueue
	for i := 0; i < total; i++ {
		ok, _ := cw.frameDeferred(&q, &frame{kind: fReplyB, ch: 1, id: uint64(i), data: ints(7)})
		if !ok {
			t.Fatalf("frame %d rejected by a healthy writer", i)
		}
	}
	st := cw.stats()
	if st.Parked == 0 {
		t.Fatal("no frames parked: budget never engaged")
	}
	if st.MaxBatchBytes > budget+64 {
		t.Fatalf("batch grew to %d bytes past budget %d", st.MaxBatchBytes, budget)
	}

	close(release)
	select {
	case r := <-readerDone:
		if r.err != nil {
			t.Fatalf("reader failed after %d frames: %v", len(r.ids), r.err)
		}
		for i, id := range r.ids {
			if id != uint64(i) {
				t.Fatalf("frame %d arrived with id %d: deferred frames reordered", i, id)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked frames never delivered after the peer drained")
	}
	cw.close()
}

// TestSlowPeerBoundsServerWriter is the end-to-end memory-bound test:
// a mux client stalls its reads mid-burst (net.Pipe: the server's
// writer wedges on its next flush), while its sessions keep pipelining
// queries. The server's pending batch must cap at the write budget and
// its deferred replies at the credit window — where the PR 4 writer
// grew with the entire reply volume — and everything must complete
// once the client resumes reading. Runs at Workers ∈ {1, 4}; the
// paired subtest kills the connection mid-stall instead and requires a
// clean unwedge.
func TestSlowPeerBoundsServerWriter(t *testing.T) {
	// The budget sits far below the window's reply volume: a larger
	// budget would bound the batch before the byte cap ever engaged
	// (which is the point, but not what this test wants to observe).
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
					// control: replies deferred past the budget.
					deadline := time.Now().Add(20 * time.Second)
					for srv.Stats().FramesParked == 0 {
						if time.Now().After(deadline) {
							t.Fatalf("server never parked a reply; stats %+v", srv.Stats())
						}
						time.Sleep(time.Millisecond)
					}
					st := srv.Stats()
					if st.MaxBatchBytes > budget+64 {
						t.Fatalf("server batch grew to %d bytes, budget %d", st.MaxBatchBytes, budget)
					}
					if st.MaxParkedFrames > sessions*window {
						t.Fatalf("server parked %d frames, credit bound %d", st.MaxParkedFrames, sessions*window)
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
					if !kill {
						st := srv.Stats()
						if st.MaxBatchBytes > budget+64 {
							t.Fatalf("server batch peaked at %d bytes after drain, budget %d", st.MaxBatchBytes, budget)
						}
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

// TestPoisonErrorsCoalesceUnderBackpressure closes the hole the credit
// window does not cover: BEGIN/END are not credit-gated, and a failing
// BEGIN ships an id-0 block-level ERROR, so a peer that stopped
// reading could cycle failing blocks and grow the deferred queue one
// poison frame per block, forever. At most one id-0 ERROR per channel
// may sit in the deferred queue while the writer is congested.
func TestPoisonErrorsCoalesceUnderBackpressure(t *testing.T) {
	rt := core.New(core.ConfigAll)
	srv := NewServer(rt)
	srv.writeBudget = 128 // tiny: the first parked frame marks congestion
	ln := newPipeListener()
	go srv.Serve(ln)
	defer func() {
		srv.Close()
		rt.Shutdown()
	}()

	conn := ln.dial(t)
	defer conn.Close()

	// Cycle failing blocks on one channel without ever reading: every
	// BEGIN poisons and would queue an id-0 ERROR.
	const cycles = 500
	var buf []byte
	for i := 0; i < cycles; i++ {
		buf = appendFrame(buf, &frame{kind: fBegin, ch: 1, name: "nonesuch"})
		buf = appendFrame(buf, &frame{kind: fEnd, ch: 1})
	}
	conn.SetWriteDeadline(time.Now().Add(20 * time.Second)) //nolint:errcheck
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}

	// Wait until the server has consumed the whole flood (every frame
	// accepted by its writer), then check the deferred queue stayed
	// small: at most one coalesced poison, not one per cycle.
	deadline := time.Now().Add(20 * time.Second)
	for srv.Stats().FramesParked == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("nothing parked; stats %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	prev := srv.Stats().Frames
	for settled := 0; settled < 5; {
		if time.Now().After(deadline) {
			t.Fatal("server never quiesced")
		}
		time.Sleep(5 * time.Millisecond)
		if cur := srv.Stats().Frames; cur == prev {
			settled++
		} else {
			prev, settled = cur, 0
		}
	}
	if st := srv.Stats(); st.MaxParkedFrames > 8 {
		t.Fatalf("deferred queue grew to %d frames over %d failing blocks; poisons not coalesced (stats %+v)",
			st.MaxParkedFrames, cycles, st)
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

// TestPoisonResendsAfterDrain pins the exactness of the id-0 ERROR
// coalescing window: a poison is skipped only while the channel's
// previous one is still in the deferred queue. Once that frame has
// drained, a later failing block must ship its own id-0 ERROR even if
// the writer happens to be congested again with unrelated traffic —
// otherwise a fire-and-forget block would lose its work silently, the
// exact case the id-0 ERROR exists to report.
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

	// readUntilPoison drains frames until an id-0 ERROR whose message
	// contains marker arrives, returning how many id-0 ERRORs it saw.
	readUntilPoison := func(marker string) int {
		t.Helper()
		poisons := 0
		var f frame
		for i := 0; i < 1024; i++ {
			if err := fr.readFrame(&f); err != nil {
				t.Fatalf("reading for %q after %d poisons: %v", marker, poisons, err)
			}
			if f.kind == fError && f.id == 0 {
				poisons++
				if strings.Contains(f.name, marker) {
					return poisons
				}
			}
		}
		t.Fatalf("id-0 ERROR %q never arrived (%d other poisons seen)", marker, poisons)
		return 0
	}

	// Congest the writer with failing blocks while nobody reads: the
	// coalescing must cap the deferred poisons at one. A poison is 31
	// bytes against the 64-byte budget, so the writer's first batch
	// (blocked in Write) and the next one hold at most three each:
	// eight blocks park one however late the writer takes its batch.
	for i := 0; i < 8; i++ {
		if !c.handleFrame(&frame{kind: fBegin, ch: 1, name: "nonesuchA"}) {
			t.Fatal("BEGIN rejected")
		}
		if !c.handleFrame(&frame{kind: fEnd, ch: 1}) {
			t.Fatal("END rejected")
		}
	}
	if st := cw.stats(); st.Parked < 1 || st.Parked > 2 {
		t.Fatalf("deferred poisons = %d over 8 failing blocks, want coalesced to 1-2", st.Parked)
	}

	// Drain: the queued poison flushes.
	readUntilPoison("nonesuchA")
	drainDeadline := time.Now().Add(10 * time.Second)
	for cw.drainedParked(&c.chans[1].q) == 0 {
		if time.Now().After(drainDeadline) {
			t.Fatal("parked poison never drained")
		}
		time.Sleep(time.Millisecond)
	}

	// Re-congest with unrelated reply traffic (nobody reading again),
	// then fail another block: its poison must be enqueued — the old
	// sequence number is spent, so no stale coalescing.
	parkedBefore := cw.stats().Parked
	for i := 0; cw.stats().Parked == parkedBefore && i < 64; i++ {
		c.reply(c.chans[1], 1, 99, nil, fmt.Errorf("padding padding padding padding padding %d", i))
	}
	if cw.stats().Parked == parkedBefore {
		t.Fatal("could not re-congest the writer")
	}
	if !c.handleFrame(&frame{kind: fBegin, ch: 1, name: "nonesuchB"}) {
		t.Fatal("second failing BEGIN rejected")
	}
	if !c.handleFrame(&frame{kind: fEnd, ch: 1}) {
		t.Fatal("second END rejected")
	}
	readUntilPoison("nonesuchB")
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
