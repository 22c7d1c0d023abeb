package remote

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// closeFlushTimeout bounds Mux.Close's final flush: a peer that
// stopped reading would otherwise leave the writer wedged in Write —
// and Close waiting on it — forever.
const closeFlushTimeout = 5 * time.Second

// Mux multiplexes many logical clients onto one connection. It owns
// the connection's two goroutines — a reader that demultiplexes
// replies into the channels' pending futures, and a batching writer
// (see connWriter) every channel's frames funnel through — and hands
// out RemoteSessions, each a lightweight logical client with its own
// wire channel.
//
// A Mux is safe for concurrent use: any number of goroutines may each
// drive their own RemoteSession. One RemoteSession, like a
// core.Client, belongs to one goroutine.
type Mux struct {
	conn net.Conn
	w    *connWriter

	mu     sync.Mutex
	chans  map[uint32]*RemoteSession
	nextCh uint32
	err    error // terminal; set once, when the connection dies

	creditStalls atomic.Uint64 // admission waits at zero credits
	bytesIn      atomic.Uint64 // payload bytes decoded from REPLYB frames
	roundTrips   atomic.Uint64 // reply-expecting requests issued (QUERYB/SYNC)

	readerDone chan struct{}
}

// DialMux connects a new Mux to a Server.
func DialMux(network, addr string) (*Mux, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	return NewMux(conn), nil
}

// NewMux wraps an established connection.
func NewMux(conn net.Conn) *Mux {
	m := &Mux{
		conn:       conn,
		chans:      map[uint32]*RemoteSession{},
		readerDone: make(chan struct{}),
	}
	// A write failure is terminal for the whole mux: fail directly so
	// every channel's pending futures resolve promptly (closing the
	// connection inside fail also unwedges the reader) instead of
	// waiting for the reader to notice the dead peer.
	m.w = newConnWriter(conn, 0, func(err error) {
		m.fail(fmt.Errorf("remote: send: %w", err))
	})
	go m.readLoop()
	return m
}

// NewSession hands out a fresh logical client on this connection. The
// channel id is never reused, so a retired session's late replies can
// never be misdelivered. On a dead mux (after Close, or after the
// connection failed) the session is born terminal: every operation
// fails fast with the mux's terminal error instead of registering
// futures nobody will ever resolve.
func (m *Mux) NewSession() *RemoteSession {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextCh++
	rs := &RemoteSession{
		m:       m,
		ch:      m.nextCh,
		pending: map[uint64]pendingReq{},
		credits: window,
	}
	rs.credit.L = &rs.mu
	rs.blk.rs = rs
	if m.err != nil {
		// A dead mux will never run another teardown sweep, so a
		// session registered now would hang its callers forever.
		rs.closed = true
		rs.term = m.err
		return rs
	}
	m.chans[rs.ch] = rs
	return rs
}

// Err returns the mux's terminal error, nil while the connection is
// healthy.
func (m *Mux) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// MuxStats is a snapshot of a connection's client-side flow-control
// and writer counters.
type MuxStats struct {
	Frames  uint64 // frames accepted by the writer
	Flushes uint64 // conn.Write calls; Frames/Flushes is the mean batch
	Dropped uint64 // frames accepted but never delivered (write failure/teardown)

	WriterStalls  uint64 // producers' waits at the writer's byte budget, one count per wait
	CreditStalls  uint64 // admissions' waits at zero per-channel credits, one count per wait
	MaxBatchBytes uint64 // peak pending-batch size (bounded by the budget)

	// RoundTrips counts reply-expecting requests issued on this
	// connection (QUERYB/SYNC frames): every one is a wire
	// round-trip the peer must answer, so eliding a sync shows up here
	// as a smaller count for the same work.
	RoundTrips uint64

	BytesOut uint64 // payload bytes encoded into CALLB/QUERYB frames
	BytesIn  uint64 // payload bytes decoded from REPLYB frames

	// Slab-pool snapshot at the time of the Stats call. The pool is
	// process-global (every connection shares it), so these are not
	// scoped to this mux: InUse is live slabs, Reuses is free-list hits.
	SlabsInUse uint64
	SlabReuses uint64
}

// Stats reports the connection's writer and flow-control counters.
func (m *Mux) Stats() MuxStats {
	ws := m.w.stats()
	inUse, reuses := slabStats()
	return MuxStats{
		Frames:        ws.Frames,
		Flushes:       ws.Flushes,
		Dropped:       ws.Dropped,
		WriterStalls:  ws.Stalls,
		CreditStalls:  m.creditStalls.Load(),
		MaxBatchBytes: ws.MaxBatchBytes,
		RoundTrips:    m.roundTrips.Load(),
		BytesOut:      ws.Bytes,
		BytesIn:       m.bytesIn.Load(),
		SlabsInUse:    inUse,
		SlabReuses:    reuses,
	}
}

// Close flushes queued frames, tears the connection down, and fails
// every channel's pending futures. Idempotent.
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return nil
	}
	m.err = ErrClosed
	chans := m.snapshotLocked()
	m.mu.Unlock()

	m.conn.SetWriteDeadline(time.Now().Add(closeFlushTimeout)) //nolint:errcheck // best effort
	m.w.close()                                                // best-effort flush of queued ENDs/CLOSEs
	err := m.conn.Close()
	for _, rs := range chans {
		rs.failPending(ErrClosed)
	}
	<-m.readerDone
	return err
}

// fail is the involuntary teardown: the connection died underneath us.
// First caller wins; everyone's pending futures are failed so no
// awaiter hangs.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return
	}
	m.err = err
	chans := m.snapshotLocked()
	m.mu.Unlock()

	m.conn.Close()
	m.w.kill()
	for _, rs := range chans {
		rs.failPending(err)
	}
}

// snapshotLocked copies the live channel set; m.mu must be held.
func (m *Mux) snapshotLocked() []*RemoteSession {
	out := make([]*RemoteSession, 0, len(m.chans))
	for _, rs := range m.chans {
		out = append(out, rs)
	}
	return out
}

// drop removes a retired channel from the demux table.
func (m *Mux) drop(ch uint32) {
	m.mu.Lock()
	delete(m.chans, ch)
	m.mu.Unlock()
}

// readLoop demultiplexes server frames into the channels' pending
// futures. It is the connection's only reader; any read or protocol
// error is terminal for the whole mux.
func (m *Mux) readLoop() {
	defer close(m.readerDone)
	fr := newFrameReader(m.conn)
	defer fr.close()
	var f frame
	for {
		if err := fr.readFrame(&f); err != nil {
			m.fail(fmt.Errorf("remote: recv: %w", err))
			return
		}
		switch f.kind {
		case fError, fReplyB:
			if f.kind == fReplyB {
				m.bytesIn.Add(uint64(len(f.data)))
			}
			m.mu.Lock()
			rs := m.chans[f.ch]
			m.mu.Unlock()
			if rs == nil {
				Release(f.data) // channel retired; stale reply — return the slab
				continue
			}
			rs.resolve(&f)
		case fCredit:
			m.mu.Lock()
			rs := m.chans[f.ch]
			m.mu.Unlock()
			if rs == nil {
				continue // channel retired; stale grant
			}
			if !rs.addCredits(f.id) {
				m.fail(fmt.Errorf("remote: credit grant of %d on channel %d: zero or past its %d-credit window: %w", f.id, f.ch, window, ErrProtocol))
				return
			}
		default:
			m.fail(fmt.Errorf("remote: unexpected frame kind 0x%02x from server: %w", byte(f.kind), ErrProtocol))
			return
		}
	}
}
