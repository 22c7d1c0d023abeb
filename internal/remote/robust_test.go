package remote

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"scoopqs/internal/core"
	"scoopqs/internal/future"
)

// queryAsyncPending opens a block on mux and leaves one pipelined query
// in flight, returning its future. The peer never replies, so the
// future resolves only through the mux's teardown path under test.
func queryAsyncPending(t *testing.T, m *Mux) *future.Future {
	t.Helper()
	rs := m.NewSession()
	var fut *future.Future
	err := rs.Separate("h", func(s *Session) error {
		f, err := s.QueryAsync("q", 1)
		fut = f
		return err
	})
	if err != nil {
		t.Fatalf("opening the pending block: %v", err)
	}
	return fut
}

// TestTerminalErrorsDistinguishable pins the typed-error contract: the
// three ways a mux dies — deliberate Close, the peer vanishing, and a
// protocol violation — fail pending futures with errors a caller can
// tell apart with errors.Is, so retry policy can key on which sentinel
// (if any) the failure wraps.
func TestTerminalErrorsDistinguishable(t *testing.T) {
	t.Run("close", func(t *testing.T) {
		cli, peer := net.Pipe()
		go io.Copy(io.Discard, peer) //nolint:errcheck // drain until the mux closes
		m := NewMux(cli)
		fut := queryAsyncPending(t, m)
		m.Close()
		_, err := fut.Get()
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("after Close: %v does not wrap ErrClosed", err)
		}
		if !errors.Is(m.Err(), ErrClosed) {
			t.Fatalf("Err() after Close: %v", m.Err())
		}
	})

	t.Run("peer vanishes", func(t *testing.T) {
		cli, peer := net.Pipe()
		go io.Copy(io.Discard, peer) //nolint:errcheck
		m := NewMux(cli)
		fut := queryAsyncPending(t, m)
		peer.Close() // the connection dies underneath the mux
		_, err := fut.Get()
		if err == nil {
			t.Fatal("future resolved cleanly on a dead connection")
		}
		if errors.Is(err, ErrClosed) {
			t.Fatalf("involuntary teardown %v must not look like a clean Close", err)
		}
		if errors.Is(err, ErrProtocol) {
			t.Fatalf("connection loss %v must not look like a protocol violation", err)
		}
		m.Close()
	})

	t.Run("protocol violation", func(t *testing.T) {
		cli, peer := net.Pipe()
		go io.Copy(io.Discard, peer) //nolint:errcheck
		m := NewMux(cli)
		fut := queryAsyncPending(t, m)
		// A server has no business sending BEGIN; the mux must diagnose
		// a violation, not a lost connection.
		if _, err := peer.Write(appendFrame(nil, &frame{kind: fBegin, ch: 1, name: "x"})); err != nil {
			t.Fatal(err)
		}
		_, err := fut.Get()
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("after a bogus frame: %v does not wrap ErrProtocol", err)
		}
		if errors.Is(err, ErrClosed) {
			t.Fatalf("violation %v must not look like a clean Close", err)
		}
		m.Close()
	})
}

// TestIdleTimeoutTearsDownStalledPeer pins the idle-deadline policy: a
// peer that goes silent with a block open, or leaves the server's
// output unread, is torn down (counted as a peer stall) and its
// handler freed, while a quiet connection with no open work is never
// timed out and still answers when it finally speaks.
func TestIdleTimeoutTearsDownStalledPeer(t *testing.T) {
	t.Run("silent block", func(t *testing.T) {
		rt := core.New(core.ConfigAll)
		srv := NewServer(rt)
		srv.IdleTimeout = 100 * time.Millisecond
		srv.Expose("calc", rt.NewHandler("calc"), map[string]Proc{
			"add": func(a []int64) int64 { return a[0] + a[1] },
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

		// The quiet connection first: dialed, then silent. No open work, so
		// the deadline must never fire for it.
		quiet, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer quiet.Close()

		// The stalled peer: opens a block, then goes silent mid-activity.
		stalled, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer stalled.Close()
		if _, err := stalled.Write(appendFrame(nil, &frame{kind: fBegin, ch: 1, name: "calc"})); err != nil {
			t.Fatal(err)
		}

		deadline := time.Now().Add(10 * time.Second)
		for srv.Stats().PeerStalls == 0 {
			if time.Now().After(deadline) {
				t.Fatal("idle deadline never fired for the stalled peer")
			}
			time.Sleep(10 * time.Millisecond)
		}
		// The teardown reaches the wire: the stalled peer's stream ends. io.Copy returns nil
		// on EOF; only a still-open connection trips the read deadline.
		stalled.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		if _, err := io.Copy(io.Discard, stalled); err != nil && !errors.Is(err, net.ErrClosed) {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("stalled peer's connection still alive after the idle deadline")
			}
			// A reset instead of a clean FIN is also a teardown.
		}

		// Several idle windows later, the quiet connection is still welcome.
		time.Sleep(3 * srv.IdleTimeout)
		var buf []byte
		buf = appendFrame(buf, &frame{kind: fBegin, ch: 1, name: "calc"})
		buf = appendFrame(buf, &frame{kind: fQueryB, ch: 1, id: 1, name: "add", data: ints(2, 3)})
		buf = appendFrame(buf, &frame{kind: fEnd, ch: 1})
		if _, err := quiet.Write(buf); err != nil {
			t.Fatalf("quiet connection was torn down: %v", err)
		}
		quiet.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		fr := newFrameReader(quiet)
		var f frame
		if err := fr.readFrame(&f); err != nil {
			t.Fatalf("quiet connection reply: %v", err)
		}
		if f.kind != fReplyB || f.id != 1 || !bytes.Equal(f.data, ints(5)) {
			t.Fatalf("quiet connection: expected REPLYB id=1 of 5, got kind=0x%02x id=%d %x", byte(f.kind), f.id, f.data)
		}
		Release(f.data)
		if got := srv.Stats().PeerStalls; got != 1 {
			t.Fatalf("PeerStalls = %d, want 1", got)
		}
	})

	// A peer failing blocks without reading holds no block open, so the
	// read deadline never arms for it. Its id-0 ERRORs fill the batch
	// until the reader waits at the byte budget; the write deadline
	// tears it down.
	t.Run("unread failures", func(t *testing.T) {
		base := takeLeakBaseline()
		rt := core.New(core.ConfigAll)
		srv := NewServer(rt)
		srv.IdleTimeout = 100 * time.Millisecond
		srv.writeBudget = 1 << 10
		ln := newPipeListener()
		go srv.Serve(ln)
		conn := ln.dial(t)
		defer conn.Close()

		var chunk []byte
		for i := 0; i < 64; i++ {
			chunk = appendFrame(chunk, &frame{kind: fBegin, ch: 1, name: "nonesuch"})
			chunk = appendFrame(chunk, &frame{kind: fEnd, ch: 1})
		}
		// Flood until the server stops reading (a write times out) or
		// hangs up; then idle, never reading.
		var err error
		for i := 0; err == nil && i < 1<<10; i++ {
			conn.SetWriteDeadline(time.Now().Add(time.Second)) //nolint:errcheck
			_, err = conn.Write(chunk)
		}
		if !chaosPoll(func() bool { return srv.Stats().PeerStalls > 0 }) {
			t.Fatalf("a peer leaving its errors unread was never torn down (write err %v)", err)
		}
		conn.SetWriteDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		if _, err := conn.Write(chunk); !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("write after the teardown: %v, want the pipe closed", err)
		}
		srv.Close()
		if err := base.settle(rt); err != nil {
			t.Fatal(err)
		}
		if got := srv.Stats().PeerStalls; got != 1 {
			t.Fatalf("PeerStalls = %d, want 1", got)
		}
	})
}
