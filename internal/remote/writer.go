package remote

import (
	"io"
	"sync"

	"scoopqs/internal/obs"
)

// writerHighWater is the batch size the writer's buffers are pre-grown
// to; batches above it shrink back after the write so one burst cannot
// pin memory forever.
const writerHighWater = 64 << 10

// defaultWriteBudget is the soft byte cap on the pending batch. Below
// it, every producer appends and moves on; at or above it, a blocking
// producer waits until the writer takes the batch, while a reply
// (frameNoWait) is appended regardless.
const defaultWriteBudget = 256 << 10

// writerStats is a snapshot of a connWriter's counters.
type writerStats struct {
	Frames  uint64 // frames accepted onto a batch
	Flushes uint64 // conn.Write calls
	Dropped uint64 // frames accepted but never delivered (write failure or kill)
	Stalls  uint64 // blocking producers' waits at the byte budget, one count per wait
	Bytes   uint64 // payload bytes of bytes-kind frames encoded onto batches

	MaxBatchBytes uint64 // peak pending-batch size
}

// fold accumulates o into s: counters add, peaks take the max. Used to
// aggregate the writers of many connections (Server.Stats).
func (s *writerStats) fold(o writerStats) {
	s.Frames += o.Frames
	s.Flushes += o.Flushes
	s.Dropped += o.Dropped
	s.Stalls += o.Stalls
	s.Bytes += o.Bytes
	if o.MaxBatchBytes > s.MaxBatchBytes {
		s.MaxBatchBytes = o.MaxBatchBytes
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
// would grow with everything produced meanwhile. At the budget the two
// producer paths diverge:
//
//   - frame (blocking): the producer waits on room, broadcast when the
//     writer takes the batch or dies, then appends. Producers
//     never touch the socket; they wait on memory pressure only. A
//     client's sessions and the server's reader produce this way: each
//     waits on its own peer's unread output.
//   - frameNoWait (non-blocking): the frame is appended past the
//     budget. A server handler answering a request produces this way,
//     since it serves every connection and must not wait on one peer;
//     the credit window bounds these replies (one per admitted
//     request), not this writer.
type connWriter struct {
	w     io.Writer
	onErr func(error) // called once, off the lock, when a write fails

	budget int // soft byte cap on buf

	mu     sync.Mutex
	cond   *sync.Cond // the writer goroutine waits here for a batch
	room   *sync.Cond // producers wait here while buf is at the budget
	buf    []byte     // batch being filled by producers
	bufN   int        // frames in buf
	spare  []byte     // previous batch, being written / ready for reuse
	closed bool
	err    error
	st     writerStats

	done chan struct{}
}

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
		w:      w,
		onErr:  onErr,
		budget: budget,
		buf:    make([]byte, 0, writerHighWater),
		spare:  make([]byte, 0, writerHighWater),
		done:   make(chan struct{}),
	}
	cw.cond = sync.NewCond(&cw.mu)
	cw.room = sync.NewCond(&cw.mu)
	go cw.loop()
	return cw
}

// appendUnlock encodes f onto the current batch and releases cw.mu,
// which the caller holds. It reports false, dropping f, when the
// writer is dead (write failure, or close/kill): a dead connection
// delivers nothing either way.
func (cw *connWriter) appendUnlock(f *frame) bool {
	if cw.closed {
		cw.mu.Unlock()
		return false
	}
	wasEmpty := len(cw.buf) == 0
	cw.buf = appendFrame(cw.buf, f)
	cw.bufN++
	cw.st.Frames++
	cw.st.Bytes += uint64(len(f.data)) // nonzero only for bytes-kind frames
	if n := uint64(len(cw.buf)); n > cw.st.MaxBatchBytes {
		cw.st.MaxBatchBytes = n
	}
	cw.mu.Unlock()
	if wasEmpty {
		// Only the empty->non-empty transition needs a signal: a
		// non-empty batch means the writer is mid-write and will loop.
		cw.cond.Signal()
	}
	return true
}

// frame encodes f onto the current batch, waiting while the batch is
// at the byte budget until the writer takes it. It reports false when
// the writer is dead. It may block, so it must never run on a mux's
// reader or on a server handler.
func (cw *connWriter) frame(f *frame) bool {
	cw.mu.Lock()
	if !cw.closed && len(cw.buf) >= cw.budget {
		cw.st.Stalls++
		var t0 int64
		if obs.Enabled() {
			t0 = obs.Now()
		}
		for !cw.closed && len(cw.buf) >= cw.budget {
			cw.room.Wait()
		}
		if t0 != 0 {
			dur := obs.Now() - t0
			writerStallHist.Observe(dur)
			obs.Emit(obs.KindWriterStall, 0, dur)
		}
	}
	return cw.appendUnlock(f)
}

// frameNoWait encodes f onto the current batch whatever its size, so
// it never blocks; it reports false when the writer is dead. f is
// encoded before it returns, so the caller may reuse f, or Release its
// payload, at once.
func (cw *connWriter) frameNoWait(f *frame) bool {
	cw.mu.Lock()
	return cw.appendUnlock(f)
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
		for len(cw.buf) == 0 && !cw.closed {
			cw.cond.Wait()
		}
		if len(cw.buf) == 0 {
			cw.mu.Unlock()
			return // closed and drained
		}
		batch, batchN := cw.buf, cw.bufN
		cw.buf, cw.spare = cw.spare[:0], batch
		cw.bufN = 0
		cw.st.Flushes++
		cw.room.Broadcast() // the batch just emptied
		cw.mu.Unlock()
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
			// that failed mid-write and frames appended since it
			// started. Count them — their producers were told
			// "accepted".
			cw.st.Dropped += uint64(batchN + cw.bufN)
			cw.buf = cw.buf[:0]
			cw.bufN = 0
			cw.spare = batch[:0]
			cw.room.Broadcast() // stalled producers see closed
			cw.mu.Unlock()
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
	cw.room.Broadcast()
	cw.mu.Unlock()
	cw.cond.Signal()
	<-cw.done
}

// kill stops the writer without flushing or waiting, dropping queued
// frames (counted in Dropped) and releasing stalled
// producers. It is the teardown used on a dead connection — including
// from onErr-adjacent paths where waiting for the goroutine would
// deadlock.
func (cw *connWriter) kill() {
	cw.mu.Lock()
	cw.closed = true
	cw.st.Dropped += uint64(cw.bufN)
	cw.buf = cw.buf[:0]
	cw.bufN = 0
	cw.room.Broadcast()
	cw.mu.Unlock()
	cw.cond.Signal()
}
