package remote

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scoopqs/internal/core"
	"scoopqs/internal/future"
)

// The request kinds — the frames that consume a credit — and the int
// veneer over them: calls get no per-id reply, SYNC names no procedure
// and carries no payload. "CALL" and "QUERY" are the int veneer's
// requests, CALLB/QUERYB frames whose varint payload an Expose'd proc
// decodes; "CALLB" and "QUERYB" name an ExposeBytes'd one.
var requestKinds = []struct {
	name    string
	kind    frameKind
	replies bool   // the server answers each request with a per-id frame
	proc    string // an exposed procedure ("" for SYNC)
	payload []byte
}{
	{"CALL", fCallB, false, "p", ints(1)},
	{"QUERY", fQueryB, true, "p", ints(1)},
	{"CALLB", fCallB, false, "bp", requestPayload},
	{"QUERYB", fQueryB, true, "bp", requestPayload},
	{"SYNC", fSync, true, "", nil},
}

// requestPayload rides every bytes-proc request: each one holds a slab
// reference the server must give back on whichever path the request
// takes (so does the int veneer's one-byte payload).
var requestPayload = bytes.Repeat([]byte{0x5A}, slabPayload)

// requestFrame builds one request of row k's kind and payload.
func requestFrame(k int, ch uint32, id uint64, proc string) frame {
	f := frame{kind: requestKinds[k].kind, ch: ch, name: proc, data: requestKinds[k].payload}
	if f.kind != fCallB {
		f.id = id
	}
	return f
}

// rawPeer is a client that speaks frames directly, so it can say what
// the real client never would.
type rawPeer struct {
	t    *testing.T
	conn net.Conn
	fr   *frameReader
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	return &rawPeer{t: t, conn: conn, fr: newFrameReader(conn)}
}

func (p *rawPeer) close() {
	p.conn.Close()
	p.fr.close()
}

// write sends the frames in one Write. The server's reader waits on its
// own replies only past the writer's byte budget, far above what these
// tests send, so the write completes whether or not anyone is reading
// them yet.
func (p *rawPeer) write(frames []frame) {
	p.t.Helper()
	var buf []byte
	for i := range frames {
		buf = appendFrame(buf, &frames[i])
	}
	if _, err := p.conn.Write(buf); err != nil {
		p.t.Fatalf("raw write: %v", err)
	}
}

// readUntilReply collects (detached copies of) every frame up to and
// excluding the REPLYB for (ch, id), which must arrive.
func (p *rawPeer) readUntilReply(ch uint32, id uint64) []frame {
	p.t.Helper()
	var got []frame
	var f frame
	for {
		if err := p.fr.readFrame(&f); err != nil {
			p.t.Fatalf("waiting for REPLYB ch=%d id=%d after %d frames: %v", ch, id, len(got), err)
		}
		data := append([]byte(nil), f.data...)
		Release(f.data)
		if f.kind == fReplyB && f.ch == ch && f.id == id {
			return got
		}
		f.data = data
		got = append(got, f)
	}
}

// expectDropped requires the server to have hung up: the stream ends
// (EOF or a reset) before the read deadline.
func (p *rawPeer) expectDropped() {
	p.t.Helper()
	var f frame
	for {
		err := p.fr.readFrame(&f)
		if err == nil {
			Release(f.data)
			continue
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			p.t.Fatal("connection still alive after a protocol violation")
		}
		return
	}
}

// requestServer is the fixture of the request-path tests: handler "h"
// answers at once, handler "gate" blocks in "hold" until the gate opens
// (so nothing logged behind it completes and no credit comes back).
// Both expose the int proc "p" and the bytes proc "bp"
// under one name, registered in opposite orders.
type requestServer struct {
	rt   *core.Runtime
	srv  *Server
	addr string
	open func() // opens the gate; idempotent
	base leakBaseline
}

func startRequestServer(t *testing.T) *requestServer {
	t.Helper()
	base := takeLeakBaseline()
	// Two workers: "hold" blocks the gate handler on a channel, a wait
	// the pool cannot see, while another handler must answer (the
	// sentinel of TestCloseShipsNoLateReplies); a pool of one would hold
	// its only worker there.
	rt := core.New(core.ConfigAll.WithWorkers(2))
	srv := NewServer(rt)
	gate := make(chan struct{})
	var once sync.Once
	procs := map[string]Proc{"p": func([]int64) int64 { return 7 }}
	bprocs := map[string]BytesProc{"bp": func([]byte) []byte { return nil }}
	h := rt.NewHandler("h")
	srv.Expose("h", h, procs)
	srv.ExposeBytes("h", h, bprocs)
	g := rt.NewHandler("gate")
	srv.ExposeBytes("gate", g, bprocs)
	srv.Expose("gate", g, map[string]Proc{
		"p":    procs["p"],
		"hold": func([]int64) int64 { <-gate; return 0 },
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return &requestServer{
		rt: rt, srv: srv, addr: ln.Addr().String(), base: base,
		open: func() { once.Do(func() { close(gate) }) },
	}
}

// stop tears the fixture down and runs the leak check.
func (rs *requestServer) stop(t *testing.T) {
	t.Helper()
	rs.open()
	rs.srv.Close()
	if err := rs.base.settle(rs.rt); err != nil {
		t.Fatal(err)
	}
}

// waitViolations polls for the server's violation count to reach want.
func waitViolations(t *testing.T, srv *Server, want uint64) {
	t.Helper()
	if !chaosPoll(func() bool { return srv.Stats().ProtocolViolations == want }) {
		t.Fatalf("ProtocolViolations = %d, want %d", srv.Stats().ProtocolViolations, want)
	}
}

// sentinel is a healthy one-query block on handler "h": its REPLYB
// proves the connection is alive, the channel usable, and — the reader
// handles frames in order — that everything written before it has been
// through handleFrame.
const sentinelID = 1 << 40

func sentinel(ch uint32) []frame {
	return []frame{
		{kind: fBegin, ch: ch, name: "h"},
		{kind: fQueryB, ch: ch, id: sentinelID, name: "p"},
		{kind: fEnd, ch: ch},
	}
}

// TestRequestPathOutcomes pins what the server does with each request
// kind, and the int veneer over them, in each of the states its
// admission ladder tells apart — outside a block, in a poisoned block,
// naming an unknown procedure, and one past the credit window —
// together with the two things every path owes: the request's credit
// back (unless the connection was dropped) and the payload's slab
// back. The last cells pin the veneer's edges: the retired int kinds,
// a malformed argument payload, and one name carrying both tables.
func TestRequestPathOutcomes(t *testing.T) {
	// returned is how many one-request blocks the inline cells run: more
	// than the window, so a path that kept its credit would walk the
	// channel past it and get the connection dropped.
	const returned = window + 64

	for ki, k := range requestKinds {
		t.Run(k.name, func(t *testing.T) {
			for _, fresh := range []bool{true, false} {
				name := "outside a block/after END"
				if fresh {
					name = "outside a block/fresh channel"
				}
				t.Run(name, func(t *testing.T) {
					rs := startRequestServer(t)
					defer rs.stop(t)
					p := dialRaw(t, rs.addr)
					defer p.close()
					var frames []frame
					if !fresh {
						frames = append(frames, frame{kind: fBegin, ch: 1, name: "h"}, frame{kind: fEnd, ch: 1})
					}
					p.write(append(frames, requestFrame(ki, 1, 1, k.proc)))
					p.expectDropped()
					waitViolations(t, rs.srv, 1)
				})
			}

			// Poisoned block and unknown procedure: the server answers (or
			// drops) on the reader and hands the credit straight back.
			for _, cell := range []struct {
				name    string
				handler string // BEGIN target
				proc    string // procedure the request names
				want    string // message every ERROR must carry
			}{
				{"poisoned block", "nonesuch", k.proc, `unknown handler "nonesuch"`},
				{"unknown procedure", "h", "nonesuch", `unknown procedure "nonesuch"`},
			} {
				t.Run(cell.name, func(t *testing.T) {
					rs := startRequestServer(t)
					defer rs.stop(t)
					p := dialRaw(t, rs.addr)
					defer p.close()

					// A SYNC names no procedure, so in a healthy block it is
					// simply dispatched: it completes on the handler, and a
					// raw peer must then stay inside the window.
					dispatched := k.kind == fSync && cell.handler == "h"
					n := returned
					if dispatched {
						n = 32
					}
					var frames []frame
					for i := 1; i <= n; i++ {
						frames = append(frames,
							frame{kind: fBegin, ch: 1, name: cell.handler},
							requestFrame(ki, 1, uint64(i), cell.proc),
							frame{kind: fEnd, ch: 1})
					}
					p.write(append(frames, sentinel(1)...))
					got := p.readUntilReply(1, sentinelID)

					var perID, blockErrs int
					for _, f := range got {
						switch {
						case f.kind == fCredit:
						case dispatched && f.kind == fReplyB:
							perID++
							if f.id != uint64(perID) || len(f.data) != 0 {
								t.Fatalf("SYNC reply %d: id=%d payload %x, want an empty REPLYB", perID, f.id, f.data)
							}
						case f.kind == fError && f.id == 0:
							blockErrs++
							if !strings.Contains(f.name, cell.want) {
								t.Fatalf("block-level ERROR %q, want it to name %s", f.name, cell.want)
							}
						case f.kind == fError && !dispatched:
							perID++
							if f.id != uint64(perID) {
								t.Fatalf("per-id ERROR %d arrived with id %d", perID, f.id)
							}
							if !strings.Contains(f.name, cell.want) {
								t.Fatalf("per-id ERROR %q, want it to name %s", f.name, cell.want)
							}
						default:
							t.Fatalf("unexpected frame kind=0x%02x ch=%d id=%d %q", byte(f.kind), f.ch, f.id, f.name)
						}
					}
					wantPerID := 0
					if k.replies {
						wantPerID = n
					}
					if perID != wantPerID {
						t.Fatalf("%d per-id replies, want %d", perID, wantPerID)
					}
					// The block is poisoned by its BEGIN, or by the call that
					// named no procedure; a query that names none fails alone.
					wantBlockErr := cell.handler == "nonesuch" || !k.replies
					if (blockErrs > 0) != wantBlockErr {
						t.Fatalf("%d block-level ERRORs, want some = %v", blockErrs, wantBlockErr)
					}

					st := rs.srv.Stats()
					if st.ProtocolViolations != 0 {
						t.Fatalf("ProtocolViolations = %d, want 0", st.ProtocolViolations)
					}
					if !dispatched && st.CreditsGranted == 0 {
						t.Fatalf("CreditsGranted = %d after %d requests: nothing replenished", st.CreditsGranted, n)
					}
				})
			}

			t.Run("one past the window", func(t *testing.T) {
				rs := startRequestServer(t)
				defer rs.stop(t)
				p := dialRaw(t, rs.addr)
				defer p.close()

				// One held call plus a full window of requests behind it:
				// nothing completes, so no credit comes back, and the last
				// request is exactly one past the window. It breaks the
				// protocol: the connection is dropped, the block ENDed.
				frames := []frame{
					{kind: fBegin, ch: 1, name: "gate"},
					{kind: fCallB, ch: 1, name: "hold"},
				}
				for i := 1; i <= window; i++ {
					frames = append(frames, requestFrame(ki, 1, uint64(i), k.proc))
				}
				p.write(frames)
				p.expectDropped()
				waitViolations(t, rs.srv, 1)
				// No CREDIT either: a channel opens with a full window, and
				// nothing has completed a grant's worth.
				if g := rs.srv.Stats().CreditsGranted; g != 0 {
					t.Fatalf("CreditsGranted = %d, want 0: nothing is advertised or replenished", g)
				}
			})
		})
	}

	// CALL (0x03) and QUERY (0x04) carried int64 vectors before the
	// veneer moved onto CALLB/QUERYB: from a client they are unknown
	// kinds, and connection-fatal.
	for _, retired := range []struct {
		name string
		raw  []byte
	}{
		{"retired CALL", []byte{0x03, 1, 1, 'p', 0}},     // ch 1, "p", no arguments
		{"retired QUERY", []byte{0x04, 1, 1, 1, 'p', 0}}, // ch 1, id 1, "p", no arguments
	} {
		t.Run(retired.name, func(t *testing.T) {
			rs := startRequestServer(t)
			defer rs.stop(t)
			p := dialRaw(t, rs.addr)
			defer p.close()
			begin := appendFrame(nil, &frame{kind: fBegin, ch: 1, name: "h"})
			if _, err := p.conn.Write(append(begin, retired.raw...)); err != nil {
				t.Fatal(err)
			}
			p.expectDropped()
			waitViolations(t, rs.srv, 1)
		})
	}

	// A payload an Expose'd proc cannot decode as varints is that
	// procedure's failure, not the connection's: a query gets its own
	// ERROR, a call poisons its block (the block's later query reports
	// it), and a sibling channel still answers.
	t.Run("malformed int arguments", func(t *testing.T) {
		rs := startRequestServer(t)
		defer rs.stop(t)
		p := dialRaw(t, rs.addr)
		defer p.close()
		bad := []byte{0x80} // a varint cut short
		frames := []frame{
			{kind: fBegin, ch: 1, name: "h"},
			{kind: fQueryB, ch: 1, id: 1, name: "p", data: bad},
			{kind: fEnd, ch: 1},
			{kind: fBegin, ch: 1, name: "h"},
			{kind: fCallB, ch: 1, name: "p", data: bad},
			{kind: fQueryB, ch: 1, id: 2, name: "p"},
			{kind: fEnd, ch: 1},
		}
		p.write(append(frames, sentinel(2)...))
		errs := 0
		for _, f := range p.readUntilReply(2, sentinelID) {
			switch {
			case f.kind == fCredit:
			case f.kind == fError && f.ch == 1 && f.id == uint64(errs+1) && strings.Contains(f.name, "malformed varint"):
				errs++
			default:
				t.Fatalf("unexpected frame kind=0x%02x ch=%d id=%d %q", byte(f.kind), f.ch, f.id, f.name)
			}
		}
		if errs != 2 {
			t.Fatalf("%d per-id ERRORs naming the malformed payload, want 2 (the query's, the poisoned block's)", errs)
		}
		if v := rs.srv.Stats().ProtocolViolations; v != 0 {
			t.Fatalf("ProtocolViolations = %d: a malformed argument payload dropped the connection", v)
		}
	})

	// Expose and ExposeBytes merge under one name, in either order: "h"
	// registered p first, "gate" bp first, and both answer both.
	t.Run("one name, both tables", func(t *testing.T) {
		rs := startRequestServer(t)
		defer rs.stop(t)
		p := dialRaw(t, rs.addr)
		defer p.close()
		var frames []frame
		for i, h := range []string{"h", "gate"} {
			ch := uint32(i + 1)
			frames = append(frames,
				frame{kind: fBegin, ch: ch, name: h},
				frame{kind: fQueryB, ch: ch, id: 1, name: "p"},
				frame{kind: fQueryB, ch: ch, id: 2, name: "bp", data: requestPayload},
				frame{kind: fEnd, ch: ch})
		}
		p.write(frames)
		replies := map[uint32]int{}
		var f frame
		for n := 0; n < 4; {
			if err := p.fr.readFrame(&f); err != nil {
				t.Fatalf("after %d replies %v: %v", n, replies, err)
			}
			answered := f.kind == fReplyB &&
				(f.id == 1 && bytes.Equal(f.data, ints(7)) || f.id == 2 && len(f.data) == 0)
			Release(f.data)
			switch {
			case f.kind == fCredit:
			case answered:
				replies[f.ch]++
				n++
			default:
				t.Fatalf("unexpected frame kind=0x%02x ch=%d id=%d %q", byte(f.kind), f.ch, f.id, f.name)
			}
		}
		if replies[1] != 2 || replies[2] != 2 {
			t.Fatalf("replies per channel %v, want both procedures answered on both handlers", replies)
		}
	})
}

// TestBracketViolationsDropConnection pins the three protocol
// violations of the block bracket itself: each is connection-fatal and
// counted once.
func TestBracketViolationsDropConnection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames []frame
	}{
		{"BEGIN inside an open block", []frame{{kind: fBegin, ch: 1, name: "h"}, {kind: fBegin, ch: 1, name: "h"}}},
		{"BEGIN inside a poisoned block", []frame{{kind: fBegin, ch: 1, name: "nonesuch"}, {kind: fBegin, ch: 1, name: "h"}}},
		{"END on a fresh channel", []frame{{kind: fEnd, ch: 1}}},
		{"END after END", []frame{{kind: fBegin, ch: 1, name: "h"}, {kind: fEnd, ch: 1}, {kind: fEnd, ch: 1}}},
		{"REPLY from the client", []frame{{kind: fReplyB, ch: 1, id: 1}}},
		{"CREDIT from the client", []frame{{kind: fBegin, ch: 1, name: "h"}, {kind: fCredit, ch: 1, id: 8}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := startRequestServer(t)
			defer rs.stop(t)
			p := dialRaw(t, rs.addr)
			defer p.close()
			p.write(tc.frames)
			p.expectDropped()
			waitViolations(t, rs.srv, 1)
		})
	}
}

// TestStrayReplyBytesReleasesPayload is the slab side of "a
// server->client kind from the client": a REPLYB carries a payload the
// decoder carved from a slab, and dropping the connection over it must
// not leave that slab pinned (the fixture's leak check is the
// assertion).
func TestStrayReplyBytesReleasesPayload(t *testing.T) {
	rs := startRequestServer(t)
	defer rs.stop(t)
	p := dialRaw(t, rs.addr)
	defer p.close()
	p.write([]frame{{kind: fReplyB, ch: 1, id: 1, data: requestPayload}})
	p.expectDropped()
	waitViolations(t, rs.srv, 1)
}

// TestChannelCapBoundsOpenChannels closes the hole the credit window
// does not cover: opening a channel is not credit-gated, and every
// fresh id costs the server a channel record and, for a BEGIN naming
// no handler, a block error in the writer. A peer that never reads and
// walks channel ids is dropped at maxChannels+1, and its block errors,
// which the reader ships waiting at the byte budget, never take the
// batch past it by more than one error.
func TestChannelCapBoundsOpenChannels(t *testing.T) {
	base := takeLeakBaseline()
	rt := core.New(core.ConfigAll)
	srv := NewServer(rt)
	ln := newPipeListener()
	go srv.Serve(ln)

	// net.Pipe has no buffering: the server's writer wedges on its first
	// flush and every later block error piles into the batch behind it.
	conn := ln.dial(t)
	conn.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	p := &rawPeer{t: t, conn: conn, fr: newFrameReader(conn)}
	var buf []byte
	for ch := uint32(1); ch <= maxChannels+1; ch++ {
		buf = appendFrame(buf, &frame{kind: fBegin, ch: ch, name: "nonesuch"})
		buf = appendFrame(buf, &frame{kind: fEnd, ch: ch})
	}
	wrote := flood(conn, buf) // the server hangs up before the tail is consumed
	waitViolations(t, srv, 1)
	p.expectDropped()
	p.close()
	<-wrote

	poison := appendFrame(nil, &frame{kind: fError, ch: maxChannels, name: `unknown handler "nonesuch"`})
	if st := srv.Stats(); st.MaxBatchBytes > defaultWriteBudget+uint64(len(poison)) {
		t.Fatalf("batch grew to %d bytes over %d channels, budget %d + one %d-byte error",
			st.MaxBatchBytes, maxChannels, defaultWriteBudget, len(poison))
	}
	srv.Close()
	if err := base.settle(rt); err != nil {
		t.Fatal(err)
	}
}

// startMuxServer serves srv on a loopback listener and dials one Mux
// to it.
func startMuxServer(t *testing.T, srv *Server) *Mux {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	mux, err := DialMux("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return mux
}

// TestPanickingCallGivesBackCreditAndPayload pins that every admitted
// request returns its credit and its payload on every path, whichever
// kind panicked. A panicking call once unwound past both, and the calls
// after it in its poisoned block never ran, so 128 blocks of
// {panicking CallBytes, CallBytes} wedged the channel with its credits
// spent and a slab pinned. Poisoning itself stays: after a panicking
// call or query the block's later calls do not run, and its later
// queries and syncs fail with the same text a panicking query gets.
func TestPanickingCallGivesBackCreditAndPayload(t *testing.T) {
	const want = `remote: server: scoopqs: panic on handler "svc": boom`
	for _, k := range []struct {
		name string
		kind frameKind // of the request that panics
	}{{"CALLB", fCallB}, {"QUERYB", fQueryB}} {
		t.Run(k.name, func(t *testing.T) {
			base := takeLeakBaseline()
			rt := core.New(core.ConfigAll.WithWorkers(2))
			srv := NewServer(rt)
			var late atomic.Int64 // calls that ran behind a panic in their block
			srv.ExposeBytes("svc", rt.NewHandler("svc"), map[string]BytesProc{
				"boom": func([]byte) []byte { panic("boom") },
				"ok":   func([]byte) []byte { return nil },
				"late": func([]byte) []byte { late.Add(1); return nil },
			})
			mux := startMuxServer(t, srv)
			rs := mux.NewSession()

			const blocks = 2000
			payload := make([]byte, 100)
			done := make(chan error, 1)
			go func() {
				for i := 0; i < blocks; i++ {
					err := rs.Separate("svc", func(s *Session) error {
						var futs []*future.Future
						if k.kind == fCallB {
							if err := s.CallBytes("boom", payload); err != nil {
								return err
							}
						} else {
							f, err := s.QueryBytesAsync("boom", payload)
							if err != nil {
								return err
							}
							futs = append(futs, f)
						}
						if err := s.CallBytes("late", payload); err != nil {
							return err
						}
						f, err := s.QueryBytesAsync("ok", payload)
						if err != nil {
							return err
						}
						errs := []error{s.Sync()}
						for _, f := range append(futs, f) {
							_, err := rs.AwaitBytes(f)
							errs = append(errs, err)
						}
						for _, err := range errs {
							if err == nil || err.Error() != want {
								return fmt.Errorf("block %d: err = %v, want %q", i, err, want)
							}
						}
						return nil
					})
					if err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(20 * time.Second):
				st := srv.Stats()
				t.Fatalf("wedged: BytesIn %d, CreditsGranted %d, SlabsInUse %d", st.BytesIn, st.CreditsGranted, st.SlabsInUse)
			}
			if n := late.Load(); n != 0 {
				t.Fatalf("%d calls ran behind a panic in their block, want 0", n)
			}
			mux.Close()
			srv.Close()
			if err := base.settle(rt); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServerRequestsMintNoFutures pins that the server answers from the
// handler: every request of every kind — CALLB, QUERYB, SYNC and the int
// veneer's calls and queries — is one asynchronous call on the server
// runtime, and none of them mints a future.
func TestServerRequestsMintNoFutures(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := takeLeakBaseline()
			rt := core.New(core.ConfigAll.WithWorkers(workers))
			srv := NewServer(rt)
			h := rt.NewHandler("svc")
			srv.ExposeBytes("svc", h, map[string]BytesProc{"echo": func(p []byte) []byte { return p }})
			srv.Expose("svc", h, map[string]Proc{"inc": func(a []int64) int64 { return a[0] + 1 }})
			mux := startMuxServer(t, srv)
			rs := mux.NewSession()

			const blocks = 200
			const perBlock = 5 // CALLB, QUERYB, int call, int query, SYNC
			payload := []byte("payload")
			for i := 0; i < blocks; i++ {
				err := rs.Separate("svc", func(s *Session) error {
					if err := s.CallBytes("echo", payload); err != nil {
						return err
					}
					qb, err := s.QueryBytesAsync("echo", payload)
					if err != nil {
						return err
					}
					if err := s.Call("inc", int64(i)); err != nil {
						return err
					}
					q, err := s.QueryAsync("inc", int64(i))
					if err != nil {
						return err
					}
					if err := s.Sync(); err != nil {
						return err
					}
					out, err := rs.AwaitBytes(qb)
					if err != nil || !bytes.Equal(out, payload) {
						return fmt.Errorf("QUERYB echo = %q, %v", out, err)
					}
					Release(out)
					if v, err := rs.Await(q); err != nil || v != int64(i)+1 {
						return fmt.Errorf("int query = %d, %v; want %d", v, err, i+1)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			st := rt.Stats()
			if st.FuturesCreated != 0 {
				t.Fatalf("server runtime minted %d futures for %d requests, want 0", st.FuturesCreated, blocks*perBlock)
			}
			mux.Close()
			srv.Close()
			if err := base.settle(rt); err != nil {
				t.Fatal(err)
			}
			// A block's calls reach Stats when the server ends it, so the
			// count is read once the last END has been handled.
			if st := rt.Stats(); st.AsyncCalls != blocks*perBlock {
				t.Fatalf("AsyncCalls = %d, want one per request (%d)", st.AsyncCalls, blocks*perBlock)
			}
		})
	}
}

// TestCloseDropsChannelFromWriter pins what CLOSE leaves in the
// connection's writer: nothing of the channel's own. A peer that never
// reads and cycles BEGIN/CLOSE over fresh ids makes the reader ship one
// block error per id — a BEGIN naming no handler — so the reader waits
// at the byte budget and stops reading the peer, with the batch never
// past the budget by more than one error, whatever the cycle count.
func TestCloseDropsChannelFromWriter(t *testing.T) {
	base := takeLeakBaseline()
	rt := core.New(core.ConfigAll)
	srv := NewServer(rt)
	const budget = 64 // full after a couple of block errors
	srv.writeBudget = budget
	ln := newPipeListener()
	go srv.Serve(ln)

	// net.Pipe has no buffering: the server's writer wedges on its first
	// flush, so the block errors after it fill the batch.
	conn := ln.dial(t)
	const cycles = 5 * maxChannels
	var buf []byte
	for ch := uint32(1); ch <= cycles; ch++ {
		buf = appendFrame(buf, &frame{kind: fBegin, ch: ch, name: "nonesuch"})
		buf = appendFrame(buf, &frame{kind: fClose, ch: ch})
	}
	wrote := flood(conn, buf)
	expectReaderStalled(t, srv, wrote)
	poison := appendFrame(nil, &frame{kind: fError, ch: cycles, name: `unknown handler "nonesuch"`})
	if st := srv.Stats(); st.MaxBatchBytes > budget+uint64(len(poison)) {
		t.Fatalf("batch grew to %d bytes, budget %d + one %d-byte error", st.MaxBatchBytes, budget, len(poison))
	}
	conn.Close()
	<-wrote
	srv.Close()
	if err := base.settle(rt); err != nil {
		t.Fatal(err)
	}
}

// TestCloseShipsNoLateReplies pins CLOSE for requests still in flight:
// a channel's queries held behind a gate complete after its CLOSE, and
// neither their replies nor the CREDIT giving back their window reach
// the wire.
func TestCloseShipsNoLateReplies(t *testing.T) {
	rs := startRequestServer(t)
	defer rs.stop(t)
	p := dialRaw(t, rs.addr)
	defer p.close()

	// Enough queries behind the gate for a CREDIT, then CLOSE; the
	// sentinel's reply shows the reader handled the CLOSE.
	frames := []frame{{kind: fBegin, ch: 1, name: "gate"}, {kind: fQueryB, ch: 1, id: 1, name: "hold"}}
	for id := uint64(2); id <= window/8; id++ {
		frames = append(frames, frame{kind: fQueryB, ch: 1, id: id, name: "p"})
	}
	frames = append(frames, frame{kind: fClose, ch: 1})
	p.write(append(frames, sentinel(2)...))
	if got := p.readUntilReply(2, sentinelID); len(got) != 0 {
		t.Fatalf("%d frames before the sentinel's reply, want none", len(got))
	}

	// Open the gate: the closed channel's queries run, then a block on
	// the same handler, whose reply is the next frame on the wire.
	rs.open()
	p.write([]frame{
		{kind: fBegin, ch: 3, name: "gate"},
		{kind: fQueryB, ch: 3, id: sentinelID, name: "p"},
		{kind: fEnd, ch: 3},
	})
	if got := p.readUntilReply(3, sentinelID); len(got) != 0 {
		t.Fatalf("a closed channel shipped %d frames (first kind 0x%02x ch %d)", len(got), byte(got[0].kind), got[0].ch)
	}
}

// TestServerSessionsPerHandler pins what a connection's channels cost
// the server runtime: private queues per handler, as many as blocks
// were open on it at once, not one per channel and handler. 64 logical
// clients of one Mux take turns running one block on each of 8
// handlers, so no two blocks overlap, and the server makes 8 sessions.
func TestServerSessionsPerHandler(t *testing.T) {
	const clients, handlers = 64, 8
	base := takeLeakBaseline()
	rt := core.New(core.ConfigAll)
	srv := NewServer(rt)
	counts := make([]int64, handlers) // counts[i] owned by handler i
	for i := range handlers {
		srv.Expose(handlerName(i), rt.NewHandler(handlerName(i)), map[string]Proc{
			"inc": func([]int64) int64 { counts[i]++; return counts[i] },
		})
	}
	mux := startMuxServer(t, srv)
	rss := make([]*RemoteSession, clients)
	for i := range rss {
		rss[i] = mux.NewSession()
	}
	for h := range handlers {
		for i, rs := range rss {
			err := rs.Separate(handlerName(h), func(s *Session) error {
				v, err := s.Query("inc")
				if err == nil && v != int64(i+1) {
					err = fmt.Errorf("inc on %s = %d, want %d", handlerName(h), v, i+1)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := rt.Stats(); st.SessionsNew != handlers {
		t.Fatalf("SessionsNew = %d, want %d (one per handler): %d channels × %d handlers would be %d",
			st.SessionsNew, handlers, clients, handlers, clients*handlers)
	}
	mux.Close()
	srv.Close()
	if err := base.settle(rt); err != nil {
		t.Fatal(err)
	}
}

// TestOverlappingChannelsShareHandler runs two channels with blocks open
// on one handler at once, on raw frames: BEGIN A, BEGIN B, CALLB A,
// CALLB B, QUERYB A, QUERYB B, END A, END B, round after round, the
// BEGIN order swapping every round. The connection's one client holds
// a session per open block, and the handler runs each block whole, in
// BEGIN order. In one round A's call panics: that poisons A's query
// only, and in the next round B, which BEGINs first, takes the session
// A's block poisoned and answers cleanly. Two fresh channels after
// both close reuse the same two sessions.
func TestOverlappingChannelsShareHandler(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := takeLeakBaseline()
			rt := core.New(core.ConfigAll.WithWorkers(workers))
			srv := NewServer(rt)
			var log []byte // owned by h: the tag of every rec that ran
			srv.ExposeBytes("h", rt.NewHandler("h"), map[string]BytesProc{
				"rec": func(p []byte) []byte {
					log = append(log, p[0])
					return append([]byte(nil), log...)
				},
				"boom": func([]byte) []byte { panic("boom") },
			})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			p := dialRaw(t, ln.Addr().String())

			var want []byte // the log the handler must have written
			var id uint64
			// round runs one round of overlapping blocks on channels a and
			// b, tagged by their ids, a BEGINning first; poisoned makes a's
			// call the panicking one.
			round := func(a, b uint32, poisoned bool) {
				t.Helper()
				call := "rec"
				if poisoned {
					call = "boom"
				}
				tag := func(ch uint32) []byte { return []byte{byte('0' + ch)} }
				idA, idB := id+1, id+2
				id += 2
				p.write([]frame{
					{kind: fBegin, ch: a, name: "h"},
					{kind: fBegin, ch: b, name: "h"},
					{kind: fCallB, ch: a, name: call, data: tag(a)},
					{kind: fCallB, ch: b, name: "rec", data: tag(b)},
					{kind: fQueryB, ch: a, id: idA, name: "rec", data: tag(a)},
					{kind: fQueryB, ch: b, id: idB, name: "rec", data: tag(b)},
					{kind: fEnd, ch: a},
					{kind: fEnd, ch: b},
				})
				got := map[uint64]frame{}
				var f frame
				for len(got) < 2 {
					if err := p.fr.readFrame(&f); err != nil {
						t.Fatalf("reading replies %d and %d: %v", idA, idB, err)
					}
					data := append([]byte(nil), f.data...)
					Release(f.data)
					f.data = data
					switch {
					case f.kind == fCredit:
					case (f.kind == fReplyB || f.kind == fError) && (f.id == idA || f.id == idB):
						got[f.id] = f
					default:
						t.Fatalf("unexpected frame kind %d ch %d id %d %q", f.kind, f.ch, f.id, f.name)
					}
				}
				if fa := got[idA]; poisoned {
					if fa.kind != fError || !strings.Contains(fa.name, "boom") {
						t.Fatalf("poisoned block's query: kind %d %q, want the ERROR of its panicking call", fa.kind, fa.name)
					}
				} else {
					want = append(want, tag(a)[0], tag(a)[0])
					if fa.kind != fReplyB || !bytes.Equal(fa.data, want) {
						t.Fatalf("channel %d's query: kind %d %q %q, want log %q", a, fa.kind, fa.name, fa.data, want)
					}
				}
				want = append(want, tag(b)[0], tag(b)[0])
				if fb := got[idB]; fb.kind != fReplyB || !bytes.Equal(fb.data, want) {
					t.Fatalf("channel %d's query: kind %d %q %q, want log %q", b, fb.kind, fb.name, fb.data, want)
				}
			}

			const rounds, poisonAt = 40, 20
			for r := range rounds {
				if r%2 == 0 {
					round(1, 2, r == poisonAt)
				} else {
					round(2, 1, false)
				}
			}
			p.write([]frame{{kind: fClose, ch: 1}, {kind: fClose, ch: 2}})
			round(3, 4, false)
			if st := rt.Stats(); st.SessionsNew != 2 {
				t.Fatalf("SessionsNew = %d, want 2 (one per block open at once)", st.SessionsNew)
			}
			p.close()
			srv.Close()
			if err := base.settle(rt); err != nil {
				t.Fatal(err)
			}
		})
	}
}
