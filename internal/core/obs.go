package core

import (
	"scoopqs/internal/obs"
	"scoopqs/internal/sched"
)

// The core runtime's observability instruments (see internal/obs for
// the overhead contract): end-to-end latency of the client-visible
// synchronization operations, plus the await-park duration that the
// handler state machine otherwise hides entirely.
var (
	// callExecHist is an async call's log→execution latency — how long
	// a request sits in its private queue before the handler runs it.
	callExecHist = obs.Default().Hist("core.call_exec_ns")
	// queryHist is the synchronous query round-trip, client-observed.
	queryHist = obs.Default().Hist("core.query_ns")
	// syncHist is the sync round-trip, client-observed (elided syncs
	// never reach it).
	syncHist = obs.Default().Hist("core.sync_ns")
	// awaitHist is how long a handler sits parked on an unresolved
	// future (Handler.Await).
	awaitHist = obs.Default().Hist("core.await_park_ns")
	// guardWaitHist is how long a SeparateWhen client sits parked: from
	// its guard request to being started when the handler evaluates the
	// guard (one sync round trip if it holds at once), else from a failed
	// evaluation to the wake-up a state change triggers.
	guardWaitHist = obs.Default().Hist("core.guard_wait_ns")
)

// emitOn records an event on w's ring when the caller runs on a pool
// worker, else on the shared rings.
func emitOn(w *sched.Worker, k obs.Kind, id uint64, arg int64) {
	if w != nil {
		w.Emit(k, id, arg)
	} else {
		obs.Emit(k, id, arg)
	}
}
