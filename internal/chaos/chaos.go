// Package chaos injects deterministic transport faults under the
// remote protocol, for remote's chaos sweep (TestChaosSweep). A
// Profile describes what goes wrong — added latency, periodic
// mid-stream stalls, partial (chunked) writes and reads, byte-exact
// truncation on either direction, abrupt resets — and Wrap applies it
// to any net.Conn. Everything is driven by a seeded PRNG per
// direction, so a failing run replays exactly from its seed.
//
// The package deliberately does not import internal/remote: it sits
// below the protocol (wrapping the transport) and beside it (Flood
// speaks just enough of the wire format to act as a credit-abusing
// client), so remote's tests can import chaos without a cycle. The
// few frame constants Flood needs are mirrored here; remote's tests
// decode Flood's output with the real frame reader and run it against
// a live server.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scoopqs/internal/obs"
)

// Injected fault errors. Both are terminal for the wrapped connection;
// they are what the *injecting* side's writes report, while the peer
// observes the raw transport effect (a short stream or a reset).
var (
	// ErrInjectedTruncate is returned by the Write that went through
	// only partially before the connection was cut mid-frame.
	ErrInjectedTruncate = errors.New("chaos: injected truncation")
	// ErrInjectedReset is returned by the Write that was dropped
	// entirely when the connection was cut.
	ErrInjectedReset = errors.New("chaos: injected reset")
)

// Profile is one fault scenario. The zero value injects nothing (Wrap
// returns the conn unwrapped); each field arms one fault independently,
// so profiles compose.
type Profile struct {
	Name string

	// LatencyMin/LatencyMax delay each Write by a uniform random
	// duration from [LatencyMin, LatencyMax]. Armed when LatencyMax > 0.
	LatencyMin, LatencyMax time.Duration

	// StallEvery freezes every StallEvery'th Write for StallDur before
	// any bytes move — a peer that periodically stops mid-activity.
	StallEvery int
	StallDur   time.Duration

	// ChunkMax splits each Write into random chunks of at most ChunkMax
	// bytes. All bytes are still written (the io.Writer contract: a
	// short count only ever comes with an error); what the fault
	// exercises is the peer's reassembly of frames that arrive in
	// arbitrary slivers.
	ChunkMax int

	// TruncateAfter cuts the connection after exactly that many bytes
	// have been written: the Write that crosses the boundary delivers
	// the prefix, closes the conn, and returns ErrInjectedTruncate. The
	// peer sees a stream ending mid-frame.
	TruncateAfter int64

	// ResetAfter cuts the connection abruptly at that many bytes: the
	// Write that would take the stream past the threshold delivers
	// nothing, closes the conn, and returns ErrInjectedReset.
	ResetAfter int64

	// ReadLatencyMin/ReadLatencyMax delay each Read by a uniform random
	// duration — a peer whose replies dribble in late. Armed when
	// ReadLatencyMax > 0.
	ReadLatencyMin, ReadLatencyMax time.Duration

	// ReadChunkMax caps each Read at a random sliver of at most that
	// many bytes, so frames reassemble from arbitrary fragments on the
	// receiving side (the read-path mirror of ChunkMax).
	ReadChunkMax int

	// ReadTruncateAfter cuts the connection after exactly that many
	// bytes have been read: the stream dies mid-frame from the reader's
	// point of view, and the conn is closed so the peer notices too.
	ReadTruncateAfter int64
}

// active reports whether the profile injects anything at all.
func (p *Profile) active() bool {
	return p.LatencyMax > 0 || p.StallEvery > 0 || p.ChunkMax > 0 ||
		p.TruncateAfter > 0 || p.ResetAfter > 0 ||
		p.ReadLatencyMax > 0 || p.ReadChunkMax > 0 || p.ReadTruncateAfter > 0
}

// Counts is a snapshot of the faults a wrapped connection has injected.
type Counts struct {
	Delays    uint64 // latency injections
	Stalls    uint64 // periodic mid-stream stalls
	Chunks    uint64 // extra Write calls from partial-write splitting
	Truncates uint64 // at most 1: the connection dies with it
	Resets    uint64 // at most 1

	ReadDelays    uint64 // read-side latency injections
	ReadChunks    uint64 // Reads clamped to a sliver
	ReadTruncates uint64 // at most 1: the stream dies mid-frame
}

// Total sums every injected fault, for run tables.
func (c Counts) Total() uint64 {
	return c.Delays + c.Stalls + c.Chunks + c.Truncates + c.Resets +
		c.ReadDelays + c.ReadChunks + c.ReadTruncates
}

// fault codes carried in obs chaos.fault events.
const (
	faultStall = iota + 1
	faultTruncate
	faultReset
)

// Conn is a net.Conn with fault injection on both directions. Write
// faults manifest to the peer as read-side symptoms (slow, short, or
// dead streams); read faults hit the wrapping side's own reader — the
// frame reassembly and slab bookkeeping of whoever holds this Conn.
// Each direction has its own PRNG and lock, so the two goroutines of a
// mux never contend and each fault sequence replays from the seed.
type Conn struct {
	net.Conn
	p Profile

	// The mux discipline is one writer goroutine per connection, so a
	// single writer-side PRNG needs no lock for that use; the mutex
	// makes Wrap safe for arbitrary callers too.
	mu      sync.Mutex
	rng     *rand.Rand
	written int64
	writes  int64
	cut     bool

	// Read-side mirror state, under its own lock.
	rmu  sync.Mutex
	rrng *rand.Rand
	read int64
	rcut bool

	counts struct {
		delays, stalls, chunks, truncates, resets atomic.Uint64
		rdelays, rchunks, rtruncates              atomic.Uint64
	}
}

// Wrap applies p to conn, seeding one fault PRNG per direction so the
// exact fault sequence replays from the seed. A profile that injects
// nothing returns conn itself.
func Wrap(conn net.Conn, p Profile, seed int64) net.Conn {
	if !p.active() {
		return conn
	}
	return &Conn{
		Conn: conn,
		p:    p,
		rng:  rand.New(rand.NewSource(seed)),
		rrng: rand.New(rand.NewSource(seed ^ 0x5EED_4EAD)),
	}
}

// Counts reports the faults injected so far.
func (c *Conn) Counts() Counts {
	return Counts{
		Delays:        c.counts.delays.Load(),
		Stalls:        c.counts.stalls.Load(),
		Chunks:        c.counts.chunks.Load(),
		Truncates:     c.counts.truncates.Load(),
		Resets:        c.counts.resets.Load(),
		ReadDelays:    c.counts.rdelays.Load(),
		ReadChunks:    c.counts.rchunks.Load(),
		ReadTruncates: c.counts.rtruncates.Load(),
	}
}

// Write injects the profile's write-path faults, then forwards to the
// wrapped connection.
func (c *Conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cut {
		return 0, net.ErrClosed
	}
	c.writes++

	if c.p.LatencyMax > 0 {
		d := c.p.LatencyMin
		if span := c.p.LatencyMax - c.p.LatencyMin; span > 0 {
			d += time.Duration(c.rng.Int63n(int64(span) + 1))
		}
		c.counts.delays.Add(1)
		if obs.Enabled() {
			obs.Emit(obs.KindChaosDelay, 0, int64(d))
		}
		time.Sleep(d)
	}
	if c.p.StallEvery > 0 && c.writes%int64(c.p.StallEvery) == 0 {
		c.counts.stalls.Add(1)
		if obs.Enabled() {
			obs.Emit(obs.KindChaosFault, 0, faultStall)
		}
		time.Sleep(c.p.StallDur)
	}
	if c.p.ResetAfter > 0 && c.written+int64(len(b)) > c.p.ResetAfter {
		c.counts.resets.Add(1)
		if obs.Enabled() {
			obs.Emit(obs.KindChaosFault, 0, faultReset)
		}
		c.cut = true
		c.Conn.Close()
		return 0, ErrInjectedReset
	}
	if c.p.TruncateAfter > 0 && c.written+int64(len(b)) > c.p.TruncateAfter {
		n := int(c.p.TruncateAfter - c.written)
		if n > 0 {
			n, _ = c.Conn.Write(b[:n]) //nolint:errcheck // the cut below is the outcome either way
			c.written += int64(n)
		}
		c.counts.truncates.Add(1)
		if obs.Enabled() {
			obs.Emit(obs.KindChaosFault, 0, faultTruncate)
		}
		c.cut = true
		c.Conn.Close()
		return n, ErrInjectedTruncate
	}

	if c.p.ChunkMax > 0 && len(b) > c.p.ChunkMax {
		total := 0
		for len(b) > 0 {
			n := c.rng.Intn(c.p.ChunkMax) + 1
			if n > len(b) {
				n = len(b)
			}
			w, err := c.Conn.Write(b[:n])
			total += w
			if err != nil {
				return total, err
			}
			b = b[n:]
			c.written += int64(w)
			c.counts.chunks.Add(1)
		}
		return total, nil
	}

	n, err := c.Conn.Write(b)
	c.written += int64(n)
	return n, err
}

// Read injects the profile's read-path faults, then forwards to the
// wrapped connection. Latency and slivers keep the io.Reader contract
// (every byte still arrives, just late or fragmented); truncation ends
// the stream mid-frame and closes the conn so the peer notices too.
func (c *Conn) Read(b []byte) (int, error) {
	c.rmu.Lock()
	if c.rcut {
		c.rmu.Unlock()
		return 0, net.ErrClosed
	}
	if c.p.ReadLatencyMax > 0 {
		d := c.p.ReadLatencyMin
		if span := c.p.ReadLatencyMax - c.p.ReadLatencyMin; span > 0 {
			d += time.Duration(c.rrng.Int63n(int64(span) + 1))
		}
		c.counts.rdelays.Add(1)
		if obs.Enabled() {
			obs.Emit(obs.KindChaosDelay, 1, int64(d))
		}
		time.Sleep(d)
	}
	limit := len(b)
	if c.p.ReadChunkMax > 0 && limit > c.p.ReadChunkMax {
		limit = c.rrng.Intn(c.p.ReadChunkMax) + 1
		c.counts.rchunks.Add(1)
	}
	if c.p.ReadTruncateAfter > 0 {
		remain := c.p.ReadTruncateAfter - c.read
		if remain <= 0 {
			c.rcut = true
			c.counts.rtruncates.Add(1)
			if obs.Enabled() {
				obs.Emit(obs.KindChaosFault, 1, faultTruncate)
			}
			c.rmu.Unlock()
			c.Conn.Close()
			return 0, ErrInjectedTruncate
		}
		if int64(limit) > remain {
			limit = int(remain)
		}
	}
	c.rmu.Unlock()
	n, err := c.Conn.Read(b[:limit])
	c.rmu.Lock()
	c.read += int64(n)
	c.rmu.Unlock()
	return n, err
}

// Mirrored wire constants for Flood. These must track internal/remote's
// frame kinds; remote's tests decode Flood with its frame reader, so
// drift fails loudly there.
const (
	frameBegin = 0x01
	frameCallB = 0x07
)

// Flood encodes a credit-abusing client's burst: one BEGIN opening
// handler on channel 1, then n CALLBs of proc with empty payloads (a
// zero-argument call to an int64 procedure) — no reads,
// no credit accounting, just frames. Written raw to a server
// connection, it is a peer that ignores CREDIT entirely; a server with
// a window of w must drop the connection after admitting at most its
// allowance, which is what the chaos experiment asserts.
func Flood(handler, proc string, n int) []byte {
	buf := make([]byte, 0, 16+len(handler)+n*(4+len(proc)))
	buf = append(buf, frameBegin, 1) // channel 1
	buf = appendUvarint(buf, uint64(len(handler)))
	buf = append(buf, handler...)
	for i := 0; i < n; i++ {
		buf = append(buf, frameCallB, 1)
		buf = appendUvarint(buf, uint64(len(proc)))
		buf = append(buf, proc...)
		buf = appendUvarint(buf, 0) // empty payload
	}
	return buf
}

// appendUvarint is binary.AppendUvarint without the import: the frame
// fields Flood emits are plain base-128 varints.
func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// String labels a profile for run output and artifacts.
func (p Profile) String() string {
	if p.Name != "" {
		return p.Name
	}
	return fmt.Sprintf("chaos(latency=%v..%v stall=%d/%v chunk=%d trunc=%d reset=%d rlatency=%v..%v rchunk=%d rtrunc=%d)",
		p.LatencyMin, p.LatencyMax, p.StallEvery, p.StallDur, p.ChunkMax, p.TruncateAfter, p.ResetAfter,
		p.ReadLatencyMin, p.ReadLatencyMax, p.ReadChunkMax, p.ReadTruncateAfter)
}
