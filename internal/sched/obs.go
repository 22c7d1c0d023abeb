package sched

import "scoopqs/internal/obs"

// The scheduler's observability instruments, predeclared so the hot
// path holds direct pointers (no registry lookups). Every use is gated
// on obs.Enabled() — see the overhead guarantee in the package doc of
// internal/obs — except dispatch, whose gate is the task's readyAt
// stamp: the stamp is only written while recording is on, so the
// disabled dispatch path is one load-and-branch on a field that is in
// cache anyway.
var (
	// dispatchHist is the ready→run queue latency: Ready/ReadyLocal
	// stamp the task, the worker loop measures at dispatch.
	dispatchHist = obs.Default().Hist("sched.dispatch_wait_ns")
	// parkHist is how long workers sit parked on the pool condvar.
	parkHist = obs.Default().Hist("sched.worker_park_ns")
	// stealAttempts counts sweeps that reached the victims' next slots;
	// stealHits those that took one (the executor's always-on steals
	// counter counts the same tasks; the attempt/hit pair measures
	// search efficiency).
	stealAttempts = obs.Default().Counter("sched.steal_attempts")
	stealHits     = obs.Default().Counter("sched.steal_hits")
)

// stamp records the enqueue time on t while recording is enabled, and
// clears any stale stamp while it is not (a stamp from a previous
// recording epoch must not surface as a bogus multi-second latency
// when recording resumes).
func stamp(t *Task) {
	if obs.Enabled() {
		t.readyAt = obs.Now()
	} else {
		t.readyAt = 0
	}
}

// noteDispatch records the ready→run latency of t on w's shard and
// ring. Called only when t carries a stamp, i.e. it was enqueued while
// recording was enabled.
func (w *Worker) noteDispatch(t *Task) {
	lat := obs.Now() - t.readyAt
	t.readyAt = 0
	dispatchHist.ObserveShard(w.id, lat)
	w.ring.Emit(obs.KindDispatch, 0, lat)
}

// Emit records an event on the worker's own trace ring — the
// attributed fast path for layers above (core emits handler events on
// the worker currently running the handler). Call only while
// obs.Enabled(), like any other recording.
func (w *Worker) Emit(k obs.Kind, id uint64, arg int64) {
	w.ring.Emit(k, id, arg)
}
