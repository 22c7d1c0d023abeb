package remote

import (
	"io"
	"slices"
	"sync"

	"scoopqs/internal/future"
	"scoopqs/internal/obs"
)

// writerHighWater is the batch size the writer's buffers are pre-grown
// to; batches above it shrink back after the write so one burst cannot
// pin memory forever.
const writerHighWater = 64 << 10

// defaultWriteBudget is the soft byte cap on the pending batch. Below
// it, producers append and move on; at or above it, blocking producers
// park until the writer drains below low water and non-blocking
// producers defer their frame to the parked queue. The low-water mark
// is half the budget.
const defaultWriteBudget = 256 << 10

// writerStats is a snapshot of a connWriter's counters.
type writerStats struct {
	Frames  uint64 // frames accepted (appended or parked)
	Flushes uint64 // conn.Write calls
	Dropped uint64 // frames accepted but never delivered (write failure or kill)
	Stalls  uint64 // blocking producers parked at the byte budget
	Parked  uint64 // frames deferred past the budget (total)
	Bytes   uint64 // payload bytes of bytes-kind frames encoded onto batches

	MaxBatchBytes   uint64 // peak pending-batch size
	MaxParkedFrames uint64 // peak length of the parked queue
}

// fold accumulates o into s: counters add, peaks take the max. Used to
// aggregate the writers of many connections (Server.Stats).
func (s *writerStats) fold(o writerStats) {
	s.Frames += o.Frames
	s.Flushes += o.Flushes
	s.Dropped += o.Dropped
	s.Stalls += o.Stalls
	s.Parked += o.Parked
	s.Bytes += o.Bytes
	if o.MaxBatchBytes > s.MaxBatchBytes {
		s.MaxBatchBytes = o.MaxBatchBytes
	}
	if o.MaxParkedFrames > s.MaxParkedFrames {
		s.MaxParkedFrames = o.MaxParkedFrames
	}
}

// connWriter is the single writer goroutine of a connection: every
// producer — a logical client logging requests, a handler answering
// one — hands its frame to an in-memory batch
// under a short mutex, and the goroutine flushes the batch with one
// conn.Write.
//
// The flush policy is batching on demand: an idle connection flushes a
// frame as soon as it arrives; while a write is in flight, new frames
// accumulate into the next batch, so under pipelined load the batch
// grows to match the connection's drain rate and the protocol pays one
// syscall per drain instead of one per message.
//
// The batch is bounded by a soft byte budget. A stalled peer leaves
// the goroutine wedged in conn.Write; without the budget the batch
// would grow with everything produced meanwhile, sized only by the
// clients' pipelining depth. At the budget the two producer paths
// diverge:
//
//   - frame (blocking, client side): the producer parks on a drain
//     future completed when the batch empties below low water, then
//     retries. Producers never touch the socket; they wait on memory
//     pressure only.
//   - frameDeferred (non-blocking, server side): the frame is moved to
//     a per-channel parked queue and appended once the batch drains.
//     The caller — the reader, or a handler running a request —
//     never blocks, which the demux path requires. Parked
//     frames are bounded by the credit window (one reply per admitted
//     request), not by this writer.
//
// Deferred frames drain with cross-channel fairness: each channel
// keeps its own FIFO (so a channel's reply still precedes its credit
// replenishment) and the refill round-robins one frame per channel, so
// one hot channel's backlog cannot starve its siblings' replies at the
// byte budget.
type connWriter struct {
	w     io.Writer
	onErr func(error) // called once, off the lock, when a write fails

	budget   int // soft byte cap on buf
	lowWater int // drain threshold waking stalled producers

	mu        sync.Mutex
	cond      *sync.Cond
	buf       []byte       // batch being filled by producers
	bufN      int          // frames in buf
	spare     []byte       // previous batch, being written / ready for reuse
	parkedLen int          // deferred frames across all channels
	rr        []*chanQueue // round-robin rotation of the queues holding frames
	rrHead    int          // consumed prefix of rr (amortized-O(1) pops)
	drain     *future.Future
	closed    bool
	err       error
	st        writerStats

	done chan struct{}
}

// chanQueue is one channel's deferred-frame FIFO plus its park/drain
// sequence counters, guarded by the writer's lock. The server's channel
// record owns it — the writer only holds the queues that have frames,
// in rr — so the counters outlive the frames for coalescing decisions
// (the server's block errors) and the whole record goes with its
// channel.
type chanQueue struct {
	frames  []frame
	head    int    // consumed prefix of frames (amortized-O(1) pops)
	issued  uint64 // frames ever parked on this channel
	drained uint64 // of those, how many left the queue (flushed or discarded)
	closed  bool   // the channel is gone (CLOSE): its frames are refused
}

// len is the channel's queued-frame count.
func (q *chanQueue) len() int { return len(q.frames) - q.head }

// newConnWriter starts a writer for w with the given byte budget (0
// selects defaultWriteBudget). onErr, if non-nil, runs exactly once
// when a write fails (typically to tear the connection down and
// unwedge the reader); it must not call back into the writer's
// blocking paths.
func newConnWriter(w io.Writer, budget int, onErr func(error)) *connWriter {
	if budget <= 0 {
		budget = defaultWriteBudget
	}
	cw := &connWriter{
		w:        w,
		onErr:    onErr,
		budget:   budget,
		lowWater: budget / 2,
		buf:      make([]byte, 0, writerHighWater),
		spare:    make([]byte, 0, writerHighWater),
		done:     make(chan struct{}),
	}
	cw.cond = sync.NewCond(&cw.mu)
	go cw.loop()
	return cw
}

// drainedParked reports how many of q's deferred frames have left it
// (flushed onto a batch, or discarded). Compared against the sequence
// number frameDeferred returns, it tells a producer whether an earlier
// deferred frame is still queued — which is what lets optional frames
// (the server's coalesced block errors) be skipped only while a
// predecessor genuinely still covers them.
func (cw *connWriter) drainedParked(q *chanQueue) uint64 {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return q.drained
}

// closeQueue retires a channel's queue (CLOSE): its deferred frames are
// dropped and counted in Dropped, and frameDeferred refuses the
// channel's later frames, so a request finishing after the CLOSE
// ships neither reply nor credit and the writer keeps no trace of it.
func (cw *connWriter) closeQueue(q *chanQueue) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	q.closed = true
	if n := q.len(); n > 0 {
		cw.st.Dropped += uint64(n)
		cw.parkedLen -= n
		q.frames, q.head = nil, 0
		cw.rr = slices.DeleteFunc(cw.rr, func(o *chanQueue) bool { return o == q })
	}
}

// appendLocked encodes f onto the current batch; cw.mu must be held.
// It reports whether this append was the empty->non-empty transition
// (the only one that needs to signal the writer goroutine).
func (cw *connWriter) appendLocked(f *frame) (wasEmpty bool) {
	wasEmpty = len(cw.buf) == 0
	cw.buf = appendFrame(cw.buf, f)
	cw.bufN++
	cw.st.Frames++
	cw.st.Bytes += uint64(len(f.data)) // nonzero only for bytes-kind frames
	if n := uint64(len(cw.buf)); n > cw.st.MaxBatchBytes {
		cw.st.MaxBatchBytes = n
	}
	return wasEmpty
}

// drainFutureLocked returns the future completed when the batch next
// drains below low water (or the writer dies); cw.mu must be held.
func (cw *connWriter) drainFutureLocked() *future.Future {
	if cw.drain == nil {
		cw.drain = future.New()
	}
	return cw.drain
}

// takeDrainersLocked claims the drain future for completion if the
// batch is below low water (always claims when the writer is closed);
// cw.mu must be held. The caller completes the result off the lock.
func (cw *connWriter) takeDrainersLocked() *future.Future {
	if cw.drain == nil {
		return nil
	}
	if !cw.closed && len(cw.buf) > cw.lowWater {
		return nil
	}
	d := cw.drain
	cw.drain = nil
	return d
}

// frame encodes f onto the current batch, parking the caller while the
// batch is at the byte budget (the stall completes when the writer
// drains below low water). It reports false when the writer is dead
// (write failure, or close/kill) — the frame is dropped then, which is
// correct for both ends: a dead connection delivers nothing either
// way. This is the client-side producer path; it may block, so it must
// never run on a reader goroutine or on a server handler.
func (cw *connWriter) frame(f *frame) bool {
	for {
		cw.mu.Lock()
		if cw.closed {
			cw.mu.Unlock()
			return false
		}
		if len(cw.buf) < cw.budget {
			wasEmpty := cw.appendLocked(f)
			cw.mu.Unlock()
			if wasEmpty {
				// Only the empty->non-empty transition needs a signal:
				// a non-empty batch means the writer is mid-write and
				// will loop.
				cw.cond.Signal()
			}
			return true
		}
		cw.st.Stalls++
		d := cw.drainFutureLocked()
		cw.mu.Unlock()
		var t0 int64
		if obs.Enabled() {
			t0 = obs.Now()
		}
		d.Get() //nolint:errcheck // wake-and-recheck; state is re-read
		if t0 != 0 {
			dur := obs.Now() - t0
			writerStallHist.Observe(dur)
			obs.Emit(obs.KindWriterStall, 0, dur)
		}
	}
}

// frameDeferred encodes f onto the current batch if the budget allows,
// and otherwise parks a detached copy on q, f's channel queue, to be
// appended when the batch drains — it never blocks, making it the only
// legal producer path on the server's reader-driven demux side
// (replies are written by the handler running the request). ok is
// false when the writer is dead or q closed. parkedSeq is zero when the
// frame went straight onto the batch, else the frame's 1-based position
// in q's deferred sequence: the frame has left the queue once
// drainedParked(q) reaches it. FIFO order within a channel is preserved
// (once a channel has anything parked, its later frames park behind it
// — and once anything at all is parked, every later frame parks,
// keeping the backlog honest); across channels the refill round-robins.
func (cw *connWriter) frameDeferred(q *chanQueue, f *frame) (ok bool, parkedSeq uint64) {
	cw.mu.Lock()
	if cw.closed || q.closed {
		cw.mu.Unlock()
		return false, 0
	}
	if cw.parkedLen == 0 && len(cw.buf) < cw.budget {
		wasEmpty := cw.appendLocked(f)
		cw.mu.Unlock()
		if wasEmpty {
			cw.cond.Signal()
		}
		return true, 0
	}
	// Park a copy that owns its payload: the caller may reuse f — or
	// Release f's slab payload — the moment we return.
	pf := *f
	if len(f.data) > 0 {
		pf.data = append([]byte(nil), f.data...)
	}
	if q.len() == 0 {
		cw.rr = append(cw.rr, q)
	}
	q.frames = append(q.frames, pf)
	q.issued++
	cw.parkedLen++
	cw.st.Frames++
	cw.st.Parked++
	if n := uint64(cw.parkedLen); n > cw.st.MaxParkedFrames {
		cw.st.MaxParkedFrames = n
	}
	seq := q.issued
	cw.mu.Unlock()
	// No signal needed: parked is only reachable with a full (hence
	// non-empty) batch, so the writer goroutine is already committed
	// to another swap and will pick parked frames up there.
	return true, seq
}

// refillLocked moves parked frames onto the batch up to the budget,
// one frame per channel per rotation so every backlogged channel makes
// progress; cw.mu must be held. Pops advance head cursors instead of
// shifting slices, so draining a large deferred backlog stays linear;
// consumed prefixes are compacted away once they dominate their array.
func (cw *connWriter) refillLocked() {
	for cw.parkedLen > 0 && len(cw.buf) < cw.budget {
		q := cw.rr[cw.rrHead]
		cw.rr[cw.rrHead] = nil
		cw.rrHead++
		cw.appendLocked(&q.frames[q.head])
		cw.st.Frames-- // appendLocked recounts; the frame was counted when parked
		q.frames[q.head] = frame{}
		q.head++
		q.drained++
		cw.parkedLen--
		if q.head == len(q.frames) {
			q.frames = q.frames[:0]
			q.head = 0
			if cap(q.frames) > 4096 {
				q.frames = nil // one burst must not pin the queue's array
			}
		} else {
			cw.rr = append(cw.rr, q) // still backlogged: back of the rotation
		}
	}
	switch {
	case cw.rrHead == len(cw.rr):
		cw.rr = cw.rr[:0]
		cw.rrHead = 0
	case cw.rrHead > 64 && cw.rrHead > len(cw.rr)/2:
		n := copy(cw.rr, cw.rr[cw.rrHead:])
		cw.rr = cw.rr[:n]
		cw.rrHead = 0
	}
}

// discardParkedLocked empties every channel's deferred queue (counting
// the frames drained), for the teardown paths; cw.mu must be held.
func (cw *connWriter) discardParkedLocked() {
	for _, q := range cw.rr[cw.rrHead:] {
		q.drained += uint64(q.len())
		q.frames, q.head = nil, 0
	}
	cw.parkedLen = 0
	cw.rr, cw.rrHead = nil, 0
}

// stats returns a snapshot of the writer's counters.
func (cw *connWriter) stats() writerStats {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.st
}

func (cw *connWriter) loop() {
	defer close(cw.done)
	cw.mu.Lock()
	for {
		for len(cw.buf) == 0 && cw.parkedLen == 0 && !cw.closed {
			cw.cond.Wait()
		}
		if len(cw.buf) == 0 && cw.parkedLen == 0 {
			cw.mu.Unlock()
			return // closed and drained
		}
		cw.refillLocked() // close() may race a park past the last swap
		batch, batchN := cw.buf, cw.bufN
		cw.buf, cw.spare = cw.spare[:0], batch
		cw.bufN = 0
		cw.st.Flushes++
		// The batch just emptied: pull deferred frames in (budget
		// permitting) and release stalled producers if below low water.
		cw.refillLocked()
		d := cw.takeDrainersLocked()
		cw.mu.Unlock()
		if d != nil {
			d.Complete(nil)
		}
		if obs.Enabled() {
			flushHist.Observe(int64(len(batch)))
			obs.Emit(obs.KindFlush, 0, int64(len(batch)))
		}

		_, err := cw.w.Write(batch)
		if cap(batch) > writerHighWater {
			// One burst grew the batch; let it go rather than pinning
			// the high-water mark in both buffers forever.
			batch = make([]byte, 0, writerHighWater)
		}
		if err != nil {
			cw.mu.Lock()
			if cw.err == nil {
				cw.err = err
			}
			cw.closed = true
			// Everything accepted but undelivered is lost: the batch
			// that failed mid-write, frames appended since it started,
			// and the parked queues. Count them — frame()/frameDeferred
			// already told their producers "accepted".
			cw.st.Dropped += uint64(batchN + cw.bufN + cw.parkedLen)
			cw.discardParkedLocked()
			cw.buf = cw.buf[:0]
			cw.bufN = 0
			cw.spare = batch[:0]
			d := cw.takeDrainersLocked()
			cw.mu.Unlock()
			if d != nil {
				d.Complete(nil) // stalled producers recheck and see closed
			}
			if cw.onErr != nil {
				cw.onErr(err)
			}
			cw.mu.Lock()
			continue // observe closed+empty and exit
		}

		cw.mu.Lock()
		cw.spare = batch[:0]
	}
}

// close flushes any queued frames and stops the writer, waiting for the
// goroutine to exit. Producers stalled at the budget are released (and
// see the writer as dead). Idempotent; safe to call concurrently with
// kill.
func (cw *connWriter) close() {
	cw.mu.Lock()
	cw.closed = true
	d := cw.takeDrainersLocked()
	cw.mu.Unlock()
	if d != nil {
		d.Complete(nil)
	}
	cw.cond.Signal()
	<-cw.done
}

// kill stops the writer without flushing or waiting, dropping queued
// and parked frames (counted in Dropped) and releasing stalled
// producers. It is the teardown used on a dead connection — including
// from onErr-adjacent paths where waiting for the goroutine would
// deadlock.
func (cw *connWriter) kill() {
	cw.mu.Lock()
	cw.closed = true
	cw.st.Dropped += uint64(cw.bufN + cw.parkedLen)
	cw.discardParkedLocked()
	cw.buf = cw.buf[:0]
	cw.bufN = 0
	d := cw.takeDrainersLocked()
	cw.mu.Unlock()
	if d != nil {
		d.Complete(nil)
	}
	cw.cond.Signal()
}
