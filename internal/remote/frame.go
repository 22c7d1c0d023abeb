// Package remote implements the paper's §7 future-work item: private
// queues with sockets as the underlying implementation. A Server
// exposes named procedures bound to the handlers of a local SCOOP/Qs
// runtime; remote clients get the same separate-block vocabulary —
// asynchronous calls, pipelined queries, sync handshakes — with the
// private queue realized as a framed binary protocol over a TCP (or
// any net.Conn) stream.
//
// # Multiplexing
//
// One connection hosts many logical clients. A Mux owns the
// connection and hands out lightweight RemoteSessions; every frame
// carries a channel id, so the separate blocks of hundreds of logical
// clients interleave on one stream while each channel keeps its own
// private-queue ordering. The server end demultiplexes frames into
// per-channel core.Session state, all drawn from the connection's one
// core.Client, so one reader goroutine and one writer goroutine serve
// all the channels of a connection — no goroutine per logical client
// anywhere, and private queues per handler only as many as blocks open
// on it at once.
//
// Because the reader goroutine serves every channel, it never waits on
// another peer: reservations use the queue-of-queues (the server
// requires a QoQ configuration), and every request — call, query or
// sync — is logged as one asynchronous call that the handler runs and,
// for a query or sync, answers by writing the reply itself. Replies are
// id-tagged and may resolve in any order across channels; per-block
// ordering comes from the handler executing each private queue in
// order, exactly as for local clients.
//
// # Flow control
//
// The write path is bounded on both ends. Each connection's batching
// writer has a soft byte budget for its pending batch: client-side
// producers, and the server's reader, wait at the budget until the
// writer takes the batch, while server-side handlers answering
// requests (which serve every connection, so must not wait on one)
// append their reply past it. Every channel carries a credit window of
// window requests, a constant both ends compile in: a channel opens
// with a full window (nothing is advertised), each logged request
// consumes one credit, and completions give credits back in CREDIT
// frames of window/8 — so the replies past the budget are bounded by
// window × channels even under a peer that stopped reading. The
// reader's own output (the errors of blocks and requests it fails on
// the spot) is not credit-gated; because the reader waits at the
// budget, a peer that floods failures without reading is no longer
// read. Opening a channel is not credit-gated either, so the live
// channels of a connection are capped (maxChannels). A channel that overruns its window breaks
// the protocol like any malformed frame: only a raw-frame peer can do
// it (a Mux takes a credit before every request), so the server drops
// that peer's connection, ENDing every block it held. Idle peers are
// handled at connection scope too: with Server.IdleTimeout set, a peer
// holding a block open with nothing in flight, or leaving a server
// write unread, is torn down (ErrPeerStalled) instead of pinning
// server state forever.
//
// Failures surface through typed, errors.Is-matchable sentinels.
// Terminal for the connection or channel: ErrClosed (deliberate local
// Close — the one "failure" that is clean), ErrProtocol (the peer
// broke the framing contract), ErrPeerStalled. A bare transport error
// (connection reset, unexpected EOF) wraps none of them, which is how
// callers distinguish "the operator closed this" from "the network ate
// it": only the latter is worth a reconnect-and-retry.
//
// The client-side consequence of the bounded write path: Call,
// QueryAsync, Query, and Sync can block the calling goroutine (at a
// zero window, or at the byte budget), so they must not be used
// inside Future.OnComplete callbacks, which run on the mux's reader
// goroutine.
//
// # Wire format
//
// Frames are binary: a fixed one-byte kind, then uvarint/zigzag-varint
// fields (strings are uvarint length + bytes). There is no length
// prefix; the stream is self-delimiting. All frames start with
//
//	kind:uint8  channel:uvarint
//
// followed by the kind's payload:
//
//	BEGIN (0x01)  handler:string            open a separate block
//	END   (0x02)  —                         end the block (END marker)
//	SYNC  (0x05)  id:uvarint                barrier -> empty REPLYB once
//	                                        prior requests have executed
//	CLOSE (0x06)  —                         retire the channel (abandons
//	                                        an open block: server ENDs it)
//	CALLB (0x07)  fn:string payload:bytes   asynchronous call, no reply
//	QUERYB(0x08)  id:uvarint fn:string      pipelined query ->
//	              payload:bytes             REPLYB/ERROR
//	ERROR (0x82)  id:uvarint msg:string     query/sync failure; id 0 is
//	                                        a block-level failure (BEGIN
//	                                        or CALLB misfired), recorded
//	                                        as the channel's sticky
//	                                        block error and surfaced at
//	                                        its next sync point
//	CREDIT(0x83)  n:uvarint                 give the channel back n
//	                                        request credits as requests
//	                                        complete (flow control)
//	REPLYB(0x84)  id:uvarint payload:bytes  query/sync result
//
// payload is a uvarint length followed by that many raw bytes, the
// protocol's one currency (see README "Remote" for the ownership
// contract). Every other kind byte decodes as ErrProtocol.
//
// The int64 API (Proc, Session.Call/Query) is a veneer over the same
// frames: arguments travel as a payload of zigzag varints back to back,
// the result as a payload of one, and SYNC's empty REPLYB reads as 0.
// Server.Expose wraps each Proc into a BytesProc that decodes its
// arguments and encodes its result, so a malformed argument payload is
// the procedure's failure (an ERROR for a query, a poisoned block for a
// call), never the connection's.
//
// Encoding appends to a caller-owned buffer and decoding reuses an
// interning table for procedure/handler names and pooled refcounted
// slabs for payloads (slab.go), so the steady-state hot path allocates
// nothing per message in either direction.
package remote

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"scoopqs/internal/obs"
)

// frameKind enumerates the wire frames. Client->server kinds are low,
// server->client kinds have the high bit set.
type frameKind uint8

const (
	fBegin  frameKind = 0x01 // open a separate block on a handler
	fEnd    frameKind = 0x02 // end the block (the END marker)
	fSync   frameKind = 0x05 // barrier; empty REPLYB once prior requests ran
	fClose  frameKind = 0x06 // retire the channel
	fCallB  frameKind = 0x07 // asynchronous call, no reply
	fQueryB frameKind = 0x08 // pipelined query; REPLYB/ERROR carries id

	fError  frameKind = 0x82 // query/sync failure (id 0: block-level)
	fCredit frameKind = 0x83 // flow-control grant; id carries the credit count
	fReplyB frameKind = 0x84 // query/sync result
)

// Decoder hard limits: a malformed or malicious stream cannot make the
// reader allocate unboundedly. Handler/procedure names and error
// messages are short; payloads are service-message-sized.
//
// The name-interning table is bounded in entries AND bytes, and a peer
// that overflows it is dropped with ErrProtocol rather than degraded:
// names are a protocol vocabulary (handlers and procedures), so an
// open-ended stream of distinct names is an adversary growing the
// table, not a workload. Before the byte cap, maxInterned entries of
// maxStringLen bytes each could pin 256 MiB per connection.
const (
	maxStringLen     = 1 << 16 // name or error message bytes
	maxInterned      = 4096    // distinct names cached per connection
	maxInternedBytes = 1 << 19 // total bytes across the name table

	maxBytesLen = 1 << 20 // bytes payload length

	// maxChannels caps the live channels of one connection. Opening a
	// channel is not credit-gated — each BEGIN on a fresh id costs the
	// server a channel record, and a private queue while blocks stay
	// open on it — so without the cap a peer walking channel ids grows
	// both without limit. Far above any honest mux: a channel is a
	// logical client, not a request.
	maxChannels = 4096
)

// window is every channel's credit window: how many requests (CALLB,
// QUERYB, SYNC) it may have admitted but not yet completed. Both ends
// compile it in: a client opens each channel with window credits, the
// server drops the connection of a channel that overruns it and gives
// completed requests' credits back in CREDIT frames of window/8. It
// bounds the replies the server appends past its writer's byte budget,
// and with them the write path's memory, at window × channels, far
// above the writer's typical flush.
const window = 1024

// frame is the decoded wire message. One frame struct is reused across
// reads: name strings are interned per connection and payloads are
// carved from pooled slabs, so steady-state decoding does not allocate.
type frame struct {
	kind frameKind
	ch   uint32 // channel (logical client) id
	id   uint64 // fSync/fError/fQueryB/fReplyB: pipeline tag; fCredit: count
	name string // fBegin: handler; fCallB/fQueryB: procedure; fError: message
	data []byte // fCallB/fQueryB/fReplyB: payload (slab-owned on decode)
}

// appendFrame encodes f onto buf and returns the extended buffer. It is
// the single encoder for both directions; the caller owns the buffer,
// so encoding into a reused batch buffer allocates nothing.
func appendFrame(buf []byte, f *frame) []byte {
	buf = append(buf, byte(f.kind))
	buf = binary.AppendUvarint(buf, uint64(f.ch))
	switch f.kind {
	case fBegin:
		buf = appendString(buf, f.name)
	case fEnd, fClose:
	case fSync, fCredit:
		buf = binary.AppendUvarint(buf, f.id)
	case fError:
		buf = binary.AppendUvarint(buf, f.id)
		buf = appendString(buf, f.name)
	case fCallB:
		buf = appendString(buf, f.name)
		buf = appendBytes(buf, f.data)
	case fQueryB:
		buf = binary.AppendUvarint(buf, f.id)
		buf = appendString(buf, f.name)
		buf = appendBytes(buf, f.data)
	case fReplyB:
		buf = binary.AppendUvarint(buf, f.id)
		buf = appendBytes(buf, f.data)
	default:
		panic(fmt.Sprintf("remote: encoding unknown frame kind 0x%02x", byte(f.kind)))
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendBytes encodes a length-prefixed payload directly onto buf —
// the caller-owned batch buffer — so the encode side of the bytes path
// is one copy (producer buffer -> wire batch) and zero allocations.
func appendBytes(buf, data []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(data)))
	return append(buf, data...)
}

// appendInts encodes int64s as the int veneer's payload: zigzag varints
// back to back.
func appendInts(buf []byte, vs []int64) []byte {
	for _, v := range vs {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

// readInts decodes an int veneer payload; ok is false when p holds a
// truncated or overlong varint.
func readInts(p []byte) (vs []int64, ok bool) {
	for len(p) > 0 {
		v, n := binary.Varint(p)
		if n <= 0 {
			return nil, false
		}
		vs, p = append(vs, v), p[n:]
	}
	return vs, true
}

// frameReader decodes frames from a stream. It owns a buffered reader,
// a scratch buffer for string bytes, a per-connection interning table
// so repeated handler/procedure names decode to the same string with
// no allocation, and a slab allocator for payloads.
type frameReader struct {
	r         *bufio.Reader
	names     map[string]string
	nameBytes int // total bytes interned in names (satellite of maxInterned)
	strbuf    []byte
	slabs     slabAlloc
	mid       bool // the last readFrame consumed bytes before failing
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{
		r:     bufio.NewReader(r),
		names: make(map[string]string),
	}
}

// close drops the reader's hold on its current payload slab; call it
// when the stream is done so an idle reader does not pin a slab.
// Payloads already handed out keep their own references. Idempotent.
func (fr *frameReader) close() { fr.slabs.close() }

// readFrame decodes the next frame into f. Any error (including a
// malformed frame) is terminal for the stream: the reader's position is
// undefined afterwards.
func (fr *frameReader) readFrame(f *frame) error {
	fr.mid = false
	k, err := fr.r.ReadByte()
	if err != nil {
		return err
	}
	fr.mid = true
	f.kind = frameKind(k)
	ch, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return unexpectedEOF(err)
	}
	if ch > math.MaxUint32 {
		return fmt.Errorf("remote: channel id %d overflows uint32: %w", ch, ErrProtocol)
	}
	f.ch = uint32(ch)
	f.id, f.name, f.data = 0, "", nil
	switch f.kind {
	case fBegin:
		f.name, err = fr.readString(true)
	case fEnd, fClose:
	case fSync, fCredit:
		f.id, err = binary.ReadUvarint(fr.r)
	case fError:
		if f.id, err = binary.ReadUvarint(fr.r); err != nil {
			return unexpectedEOF(err)
		}
		f.name, err = fr.readString(false)
	case fCallB:
		if f.name, err = fr.readString(true); err == nil {
			f.data, err = fr.readBytes()
		}
	case fQueryB:
		if f.id, err = binary.ReadUvarint(fr.r); err != nil {
			return unexpectedEOF(err)
		}
		if f.name, err = fr.readString(true); err == nil {
			f.data, err = fr.readBytes()
		}
	case fReplyB:
		if f.id, err = binary.ReadUvarint(fr.r); err != nil {
			return unexpectedEOF(err)
		}
		f.data, err = fr.readBytes()
	default:
		return fmt.Errorf("remote: unknown frame kind 0x%02x: %w", k, ErrProtocol)
	}
	return unexpectedEOF(err)
}

// readString decodes a length-prefixed string. With intern=true the
// bytes are looked up in (and added to) the connection's name table, so
// a hot procedure name costs a map probe instead of an allocation. The
// table is capped in entries and bytes; a peer that overflows it is a
// protocol violator (names are a bounded vocabulary, and an unbounded
// stream of distinct ones is a memory attack), so the overflow is
// terminal with ErrProtocol rather than a silent degradation.
func (fr *frameReader) readString(intern bool) (string, error) {
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return "", unexpectedEOF(err)
	}
	if n > maxStringLen {
		return "", fmt.Errorf("remote: string of %d bytes exceeds limit %d: %w", n, maxStringLen, ErrProtocol)
	}
	if cap(fr.strbuf) < int(n) {
		fr.strbuf = make([]byte, n)
	}
	b := fr.strbuf[:n]
	if _, err := io.ReadFull(fr.r, b); err != nil {
		return "", unexpectedEOF(err)
	}
	if intern {
		if s, ok := fr.names[string(b)]; ok {
			return s, nil
		}
		if len(fr.names) >= maxInterned || fr.nameBytes+len(b) > maxInternedBytes {
			return "", fmt.Errorf("remote: name-intern table overflow (%d names, %d bytes cached): %w",
				len(fr.names), fr.nameBytes, ErrProtocol)
		}
		s := string(b)
		fr.names[s] = s
		fr.nameBytes += len(s)
		return s, nil
	}
	return string(b), nil
}

// readBytes decodes a length-prefixed payload straight into a pooled
// slab, handed to the caller with one reference, to be returned with
// Release. An empty payload decodes as nil.
func (fr *frameReader) readBytes() ([]byte, error) {
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return nil, unexpectedEOF(err)
	}
	if n > maxBytesLen {
		return nil, fmt.Errorf("remote: bytes payload of %d exceeds limit %d: %w", n, maxBytesLen, ErrProtocol)
	}
	if obs.Enabled() {
		payloadHist.Observe(int64(n))
	}
	if n == 0 {
		return nil, nil
	}
	out := fr.slabs.take(int(n))
	if _, err := io.ReadFull(fr.r, out); err != nil {
		Release(out)
		return nil, unexpectedEOF(err)
	}
	return out, nil
}

// atBoundary reports whether the reader is positioned between frames:
// the last readFrame error (if any) struck before the frame's first
// byte was consumed, so the stream is still in sync and a retryable
// error (a read deadline on a quiet connection) may simply read again.
func (fr *frameReader) atBoundary() bool { return !fr.mid }

// unexpectedEOF converts a mid-frame EOF into io.ErrUnexpectedEOF so a
// stream truncated inside a frame is distinguishable from a clean close
// between frames (plain io.EOF from the kind byte).
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
