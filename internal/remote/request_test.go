package remote

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"scoopqs/internal/core"
)

// The five request kinds — the frames that consume a credit — and what
// tells them apart on the wire: calls get no per-id reply, bytes kinds
// carry a slab payload and look their procedure up in the bytes
// namespace, SYNC names no procedure at all.
var requestKinds = []struct {
	name    string
	kind    frameKind
	replies bool   // the server answers each request with a per-id frame
	proc    string // an exposed procedure of the kind's namespace ("" for SYNC)
}{
	{"CALL", fCall, false, "p"},
	{"QUERY", fQuery, true, "p"},
	{"CALLB", fCallB, false, "bp"},
	{"QUERYB", fQueryB, true, "bp"},
	{"SYNC", fSync, true, ""},
}

// requestPayload rides every bytes-kind request: past the decoder's
// small-payload intern threshold, so each one holds a slab reference
// the server must give back on whichever path the request takes.
var requestPayload = bytes.Repeat([]byte{0x5A}, slabPayload)

// requestFrame builds one request of the given kind.
func requestFrame(kind frameKind, ch uint32, id uint64, proc string) frame {
	f := frame{kind: kind, ch: ch, name: proc}
	switch kind {
	case fCall:
		f.args = []int64{1}
	case fQuery:
		f.id, f.args = id, []int64{1}
	case fCallB:
		f.data = requestPayload
	case fQueryB:
		f.id, f.data = id, requestPayload
	case fSync:
		f.id, f.name = id, ""
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

// write sends the frames in one Write. The server's reader never blocks
// on its own replies, so the write completes whether or not anyone is
// reading them yet.
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
// excluding the REPLY for (ch, id), which must arrive.
func (p *rawPeer) readUntilReply(ch uint32, id uint64) []frame {
	p.t.Helper()
	var got []frame
	var f frame
	for {
		if err := p.fr.readFrame(&f); err != nil {
			p.t.Fatalf("waiting for REPLY ch=%d id=%d after %d frames: %v", ch, id, len(got), err)
		}
		if f.kind == fReply && f.ch == ch && f.id == id {
			return got
		}
		Release(f.data)
		f.data = nil
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
// (so nothing logged behind it completes and the window controller
// never runs). Both expose "p" and "bp".
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
	rt := core.New(core.ConfigAll)
	srv := NewServer(rt)
	gate := make(chan struct{})
	var once sync.Once
	procs := map[string]Proc{"p": func([]int64) int64 { return 7 }}
	bprocs := map[string]BytesProc{"bp": func([]byte) []byte { return nil }}
	h := rt.NewHandler("h")
	srv.Expose("h", h, procs)
	srv.ExposeBytes("h", h, bprocs)
	g := rt.NewHandler("gate")
	srv.Expose("gate", g, map[string]Proc{
		"p":    procs["p"],
		"hold": func([]int64) int64 { <-gate; return 0 },
	})
	srv.ExposeBytes("gate", g, bprocs)
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

// sentinel is a healthy one-query block on handler "h": its REPLY
// proves the connection is alive, the channel usable, and — the reader
// handles frames in order — that everything written before it has been
// through handleFrame.
const sentinelID = 1 << 40

func sentinel(ch uint32) []frame {
	return []frame{
		{kind: fBegin, ch: ch, name: "h"},
		{kind: fQuery, ch: ch, id: sentinelID, name: "p"},
		{kind: fEnd, ch: ch},
	}
}

// TestRequestPathOutcomes pins what the server does with each of the
// five request kinds in each of the states its admission ladder tells
// apart — outside a block, in a poisoned block, naming an unknown
// procedure, and one past the credit window — together with the two
// things every path owes: the request's credit back (unless the channel
// was quarantined) and the payload's slab back.
func TestRequestPathOutcomes(t *testing.T) {
	const initialGrant = adaptiveInitWindow - bootstrapCredits

	// returned is how many one-request blocks the inline cells run: more
	// than any window the controller can reach, so a path that kept its
	// credit would walk the channel into a quarantine.
	const returned = adaptiveMaxWindow + 64

	for _, k := range requestKinds {
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
					p.write(append(frames, requestFrame(k.kind, 1, 1, k.proc)))
					p.expectDropped()
					waitViolations(t, rs.srv, 1)
					if q := rs.srv.Stats().Quarantines; q != 0 {
						t.Fatalf("Quarantines = %d, want 0", q)
					}
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
				if cell.proc == "nonesuch" && k.proc == "bp" {
					cell.want = `unknown bytes procedure "nonesuch"` // the namespaces are told apart
				}
				t.Run(cell.name, func(t *testing.T) {
					rs := startRequestServer(t)
					defer rs.stop(t)
					p := dialRaw(t, rs.addr)
					defer p.close()

					// A SYNC names no procedure, so in a healthy block it is
					// simply dispatched: it completes on the handler, and a
					// raw peer must then stay inside the bootstrap window.
					dispatched := k.kind == fSync && cell.handler == "h"
					n := returned
					if dispatched {
						n = bootstrapCredits / 2
					}
					var frames []frame
					for i := 1; i <= n; i++ {
						frames = append(frames,
							frame{kind: fBegin, ch: 1, name: cell.handler},
							requestFrame(k.kind, 1, uint64(i), cell.proc),
							frame{kind: fEnd, ch: 1})
					}
					p.write(append(frames, sentinel(1)...))
					got := p.readUntilReply(1, sentinelID)

					var perID, blockErrs int
					for _, f := range got {
						switch {
						case f.kind == fCredit:
						case dispatched && f.kind == fReply:
							perID++
							if f.id != uint64(perID) || f.val != 0 {
								t.Fatalf("SYNC reply %d: id=%d val=%d", perID, f.id, f.val)
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
					if st.Quarantines != 0 || st.ProtocolViolations != 0 {
						t.Fatalf("quarantines %d, violations %d; want none", st.Quarantines, st.ProtocolViolations)
					}
					if !dispatched && st.CreditsGranted <= initialGrant {
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
				// nothing completes, so the window is exactly the initial
				// one and the last request is exactly one past it.
				frames := []frame{
					{kind: fBegin, ch: 1, name: "gate"},
					{kind: fCall, ch: 1, name: "hold"},
				}
				for i := 1; i <= adaptiveInitWindow; i++ {
					frames = append(frames, requestFrame(k.kind, 1, uint64(i), k.proc))
				}
				// The channel is a black hole from here on.
				frames = append(frames, requestFrame(fQuery, 1, 9999, "p"), frame{kind: fEnd, ch: 1})
				p.write(append(frames, sentinel(2)...))
				got := p.readUntilReply(2, sentinelID)

				overruns := 0
				for _, f := range got {
					switch {
					case f.kind == fCredit:
					case f.kind == fError && f.ch == 1 && f.id == 0 && strings.Contains(f.name, "credit window overrun"):
						overruns++
					default:
						t.Fatalf("unexpected frame kind=0x%02x ch=%d id=%d %q", byte(f.kind), f.ch, f.id, f.name)
					}
				}
				if overruns != 1 {
					t.Fatalf("%d id-0 ErrCreditOverrun frames, want exactly 1", overruns)
				}
				st := rs.srv.Stats()
				if st.Quarantines != 1 || st.ProtocolViolations != 0 {
					t.Fatalf("quarantines %d, violations %d; want 1 and 0", st.Quarantines, st.ProtocolViolations)
				}
				if st.CreditsGranted != 2*initialGrant {
					t.Fatalf("CreditsGranted = %d, want the two initial grants (%d): a quarantined channel is not replenished",
						st.CreditsGranted, 2*initialGrant)
				}
			})
		})
	}
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
		{"REPLY from the client", []frame{{kind: fReply, ch: 1, id: 1, val: 1}}},
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
// fresh id costs the server a channel record, a core.Client and a
// window advertisement. A peer that never reads and walks channel ids
// is dropped at maxChannels+1, with at most one deferred frame per
// channel behind the wedged writer.
func TestChannelCapBoundsOpenChannels(t *testing.T) {
	base := takeLeakBaseline()
	rt := core.New(core.ConfigAll)
	srv := NewServer(rt)
	srv.Expose("h", rt.NewHandler("h"), map[string]Proc{"p": func([]int64) int64 { return 0 }})
	ln := newPipeListener()
	go srv.Serve(ln)

	// net.Pipe has no buffering: the server's writer wedges on its first
	// flush and every later advertisement is deferred behind it.
	conn := ln.dial(t)
	conn.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	p := &rawPeer{t: t, conn: conn, fr: newFrameReader(conn)}
	var buf []byte
	for ch := uint32(1); ch <= maxChannels+1; ch++ {
		buf = appendFrame(buf, &frame{kind: fBegin, ch: ch, name: "h"})
		buf = appendFrame(buf, &frame{kind: fEnd, ch: ch})
	}
	conn.Write(buf) //nolint:errcheck // the server hangs up before the tail is consumed
	waitViolations(t, srv, 1)
	p.expectDropped()
	p.close()

	st := srv.Stats()
	if st.MaxParkedFrames > maxChannels+8 {
		t.Fatalf("deferred queue grew to %d frames over %d channels", st.MaxParkedFrames, maxChannels)
	}
	if st.Quarantines != 0 {
		t.Fatalf("Quarantines = %d, want 0", st.Quarantines)
	}
	srv.Close()
	if err := base.settle(rt); err != nil {
		t.Fatal(err)
	}
}
