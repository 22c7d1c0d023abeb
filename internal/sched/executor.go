package sched

import (
	"sync"
	"sync/atomic"

	"scoopqs/internal/obs"
)

// Runnable is a unit of resumable work multiplexed onto an Executor's
// workers. Step runs the unit until it has no immediately available
// work; it must not block indefinitely — a Runnable that needs to wait
// returns from Step and is handed back to the Executor (Ready) when
// new work arrives. Step is never invoked
// concurrently for the same Runnable; the scheduling protocol of the
// owner must guarantee that.
//
// Step receives the worker it runs on. Code executed by the Runnable
// that makes *other* runnables ready can pass that worker to
// ReadyLocal, keeping a message-passing chain in one worker's next
// slot instead of bouncing through the shared injector.
type Runnable interface {
	Step(w *Worker)
}

// Task is the scheduling token for one Runnable: the unit that moves
// through next slots and the injector. Make it once per long-lived
// Runnable (a core handler embeds its own and binds it with Init) —
// Ready takes the Task, so the scheduler's hot path never
// heap-allocates per wake. The owner's scheduling protocol must ensure
// a Task is enqueued at most once until its Step runs (see Runnable); a
// Task is never in two queues at once.
type Task struct {
	r Runnable
	// readyAt is the obs timestamp of the task's last enqueue, written
	// by Ready/ReadyLocal only while recording is enabled (see
	// sched/obs.go). Zero means "not stamped"; the dispatch site's
	// single-branch check of this plain field is the disabled-path cost
	// of dispatch-latency tracking. Publication rides the queue the
	// task travels through, so no atomics are needed.
	readyAt int64
}

// NewTask wraps r for scheduling.
func NewTask(r Runnable) *Task { return &Task{r: r} }

// Init binds a zero Task to r in place, for a Task embedded in its
// Runnable. It must run before the Task is first readied.
func (t *Task) Init(r Runnable) { t.r = r }

// Worker is one goroutine of the pool, owning one ready slot. It is
// handed to Runnable.Step and is only meaningful on the
// goroutine currently running that Step; treat it as an opaque
// capability for ReadyLocal.
type Worker struct {
	e *Executor
	// id is the worker's sequence number within its executor; it picks
	// the worker's histogram shard and pooled trace ring.
	id int
	// ring is the worker's event ring (see internal/obs). Pooled by id,
	// so it is always non-nil and costs nothing until an event is
	// emitted into it.
	ring *obs.Ring
	// next is the worker's one ready slot (the Go scheduler's runnext):
	// ReadyLocal puts the hottest task here, and the owner runs it next.
	// A chain of message handoffs then costs one pointer swap per hop.
	// Thieves may take it (by swap), so a blocked owner cannot strand
	// it.
	next atomic.Pointer[Task]
	// blocking is the worker's BlockingBegin/End nesting depth. Only
	// touched from the worker's own goroutine (the blocking hooks and
	// ReadyLocal both run on it), so no atomics. While non-zero, the
	// lone-handoff wake elision is off: the owner cannot be assumed to
	// run its own pushes, so they must be announced.
	blocking int
}

// takeNext claims the worker's next-slot task, if any. Owner or thief;
// the swap arbitrates.
func (w *Worker) takeNext() *Task {
	if w.next.Load() == nil {
		return nil
	}
	return w.next.Swap(nil)
}

// Executor is a fixed-target work-stealing worker pool: the M:N layer
// that lets millions of mostly-idle handlers share a few goroutines
// instead of owning one each. It corresponds to the task-switching
// layer of the paper's §3 runtime stack, with the Go scheduler demoted
// to scheduling only the pool workers.
//
// Scheduling substrate: each worker owns one ready slot. Ready from
// outside the pool enqueues into a small mutex-guarded injector queue;
// ReadyLocal from code running on a worker puts the task in that
// worker's slot and moves a displaced occupant to the injector. A
// worker out of local work scans the injector and steals victims'
// slots before parking on the pool condvar. The wake path is cheap: a
// push first checks the atomic searcher count — if some worker is
// already scanning, it is guaranteed to find the new work (see
// findWork) and no condvar signal is needed at all.
//
// Ordering: the injector is FIFO; a worker's slot holds the newest
// local hand-off. No global order exists across queues — callers
// needing per-unit ordering get it from the Runnable protocol (a unit
// is enqueued at most once until it runs), not from the pool. Fairness
// across units comes from the owners re-readying through the injector
// when they exhaust a budget (core's stepBudget does exactly that),
// which round-robins with all external work.
//
// Blocking compensation: client code executed by a Runnable may block
// the worker goroutine itself (a handler synchronously querying
// another handler cannot be unwound into a state machine). Such code
// must bracket the wait with BlockingBegin/BlockingEnd; the Executor
// then spawns a replacement worker when the pool would otherwise have
// no runnable worker left, so dependency chains deeper than the pool
// size cannot deadlock it. A blocked worker's slot stays stealable,
// so work it made ready before blocking migrates to the replacement.
// Surplus workers retire once the blocked ones resume.
type Executor struct {
	mu       sync.Mutex
	cond     *sync.Cond
	injector []*Task // FIFO: injector[injHead:] are pending
	injHead  int
	list     []*Worker // all live workers; canonical, mu-guarded
	target   int       // configured pool size
	workers  int       // live workers, including blocked ones
	blocked  int       // workers inside a BlockingBegin/End section
	stopped  bool
	wg       sync.WaitGroup

	// idle counts workers parked (or committed to parking) on the
	// condvar. Written only under mu, but atomic so producers can check
	// it without the mutex: a worker registers as idle *before* its
	// final under-mutex emptiness check, so a producer that reads 0
	// here is sequenced before that registration — and the worker's
	// check then sees the producer's push.
	idle atomic.Int32

	// snap is the lock-free snapshot of list used by steal sweeps;
	// rebuilt under mu whenever the worker set changes.
	snap atomic.Pointer[[]*Worker]
	// searchers counts workers actively scanning for work (between
	// running out and parking). Producers skip the condvar when it is
	// non-zero; the search protocol guarantees such a worker observes
	// the push (see findWork).
	searchers atomic.Int32
	// injCount mirrors the injector's length so sweeps can skip the
	// mutex when it is empty.
	injCount atomic.Int64
	stopping atomic.Bool // mirror of stopped for lock-free fast paths
	seq      uint64      // worker id counter, mu-guarded

	spawns      atomic.Int64 // compensation workers spawned
	workerParks atomic.Int64 // times a worker went idle
	steals      atomic.Int64 // tasks migrated between workers
	injPushes   atomic.Int64 // tasks enqueued through the injector
	localPushes atomic.Int64 // tasks put in a worker's next slot
	taskSteals  atomic.Int64 // parallel-loop chunks run by helper tasks (parallel.go)
}

// NewExecutor starts a pool of n workers (n must be positive).
func NewExecutor(n int) *Executor {
	if n < 1 {
		panic("sched: NewExecutor needs at least one worker")
	}
	e := &Executor{target: n}
	e.cond = sync.NewCond(&e.mu)
	e.mu.Lock()
	for i := 0; i < n; i++ {
		e.spawnLocked()
	}
	e.spawns.Store(0) // the initial pool is not compensation
	e.mu.Unlock()
	return e
}

// spawnLocked starts one worker. Caller holds e.mu.
func (e *Executor) spawnLocked() {
	e.seq++
	w := &Worker{e: e, id: int(e.seq), ring: obs.WorkerRing(int(e.seq))}
	e.workers++
	e.list = append(e.list, w)
	e.publishListLocked()
	e.spawns.Add(1)
	e.wg.Add(1)
	go e.worker(w)
}

// removeWorkerLocked retires w from the pool. Caller holds e.mu; w's
// next slot must be empty.
func (e *Executor) removeWorkerLocked(w *Worker) {
	for i, x := range e.list {
		if x == w {
			e.list[i] = e.list[len(e.list)-1]
			e.list = e.list[:len(e.list)-1]
			break
		}
	}
	e.publishListLocked()
	e.workers--
}

func (e *Executor) publishListLocked() {
	snap := make([]*Worker, len(e.list))
	copy(snap, e.list)
	e.snap.Store(&snap)
}

// Ready enqueues t for execution by some worker, through the shared
// injector queue. The caller's scheduling protocol must ensure t is
// enqueued at most once until its Step runs (see Task). Ready after
// Stop drops t.
func (e *Executor) Ready(t *Task) {
	stamp(t)
	e.mu.Lock()
	if !e.stopped {
		e.injectLocked(t)
	}
	e.mu.Unlock()
}

// injectLocked appends t to the injector and wakes a parked worker
// unless a searcher will find it. Caller holds e.mu.
func (e *Executor) injectLocked(t *Task) {
	e.injector = append(e.injector, t)
	e.injCount.Add(1)
	e.injPushes.Add(1)
	if e.searchers.Load() == 0 && e.idle.Load() > 0 {
		e.cond.Signal()
	}
}

// ReadyLocal enqueues t for execution on worker w's fast path: the
// re-ready route for code already running on w that just made t
// runnable (a handler waking the next handler of a message chain). The
// task lands in w's next slot — it is typically the very next
// dispatch — and a task it displaces goes to the injector. A nil w
// (the caller is not on a pool worker) falls back to Ready. The Task
// enqueue-once protocol is the caller's to keep, exactly as for Ready.
//
// Wake cost: a lone handoff (an empty slot outside a blocking section)
// needs no wake at all — the caller's own worker runs the task next.
// Inside a blocking section the owner sits in a wait only this task
// may end, so the push is announced with two atomic loads (searchers,
// then idle) and a condvar signal only when a worker is actually
// parked and nobody is scanning. A displaced task is announced the
// same way.
func (e *Executor) ReadyLocal(w *Worker, t *Task) {
	if w == nil || w.e != e {
		e.Ready(t)
		return
	}
	if e.stopping.Load() {
		return
	}
	stamp(t)
	e.localPushes.Add(1)
	if prev := w.next.Swap(t); prev != nil {
		// Not Ready: prev was accepted before any Stop, which must
		// drain it.
		e.mu.Lock()
		e.injectLocked(prev)
		e.mu.Unlock()
		return
	}
	if w.blocking == 0 {
		return // lone handoff
	}
	if e.searchers.Load() == 0 && e.idle.Load() > 0 {
		e.mu.Lock()
		e.cond.Signal()
		e.mu.Unlock()
	}
}

// ClaimNext takes t back out of w's next slot, for code running on w
// that would otherwise block until t has run: it runs t's Step itself
// instead (core's inline sync). It reports false, and leaves the slot
// alone, when w is not one of e's workers or its slot no longer holds t
// (a thief took it, or a later push displaced it). A claimed task is the
// caller's to run, exactly as if a worker had dispatched it, so its
// ready stamp is dropped unmeasured.
func (e *Executor) ClaimNext(w *Worker, t *Task) bool {
	if w == nil || w.e != e || !w.next.CompareAndSwap(t, nil) {
		return false
	}
	t.readyAt = 0
	return true
}

// popInjectorLocked removes the head of the injector queue. Caller
// holds e.mu and has checked it is non-empty.
func (e *Executor) popInjectorLocked() *Task {
	t := e.injector[e.injHead]
	e.injector[e.injHead] = nil
	e.injHead++
	e.injCount.Add(-1)
	if e.injHead > 64 && e.injHead*2 >= len(e.injector) {
		n := copy(e.injector, e.injector[e.injHead:])
		e.injector = e.injector[:n]
		e.injHead = 0
	}
	return t
}

// tryInjector pops one task from the injector, or nil. When more work
// remains behind the popped task it promotes one parked worker, so an
// injected burst fans out instead of draining through a single worker.
func (e *Executor) tryInjector() *Task {
	if e.injCount.Load() == 0 {
		return nil
	}
	e.mu.Lock()
	var t *Task
	if e.injHead < len(e.injector) {
		t = e.popInjectorLocked()
		// <= 1 because the caller is often a registered searcher
		// itself; a spurious signal with one other searcher active is
		// harmless, a suppressed fan-out is a cascade of latency.
		if e.injHead < len(e.injector) && e.idle.Load() > 0 && e.searchers.Load() <= 1 {
			e.cond.Signal()
		}
	}
	e.mu.Unlock()
	return t
}

// stealTick is how many consecutive local dispatches a worker performs
// before polling the injector once, so local ping-pong chains cannot
// starve injected work. Prime, per scheduler folklore, to avoid
// accidental resonance with workload periods.
const stealTick = 61

// worker is the main loop: next slot (with a periodic injector poll
// for fairness), then the injector, then the full search protocol,
// then park.
func (e *Executor) worker(w *Worker) {
	defer e.wg.Done()
	tick := 0
	for {
		var t *Task
		tick++
		if tick%stealTick == 0 {
			t = e.tryInjector()
		}
		if t == nil {
			t = w.takeNext()
		}
		if t == nil {
			t = e.tryInjector()
		}
		if t == nil {
			t = e.findWork(w)
		}
		if t == nil {
			var retire bool
			t, retire = e.park(w)
			if retire {
				return
			}
			if t == nil {
				continue
			}
		}
		if t.readyAt != 0 {
			w.noteDispatch(t)
		}
		t.r.Step(w)
	}
}

// findWork is the search protocol: register as a searcher, then sweep
// the injector and steal from victims, spinning politely between
// rounds. The searcher count is what makes producer wakes cheap — a
// producer that observes searchers > 0 may skip the condvar entirely,
// because every searcher performs one full sweep *after* decrementing
// the count (sequential consistency then guarantees: either the
// producer's count read sees the decrement and takes the condvar path,
// or that final sweep sees the push).
func (e *Executor) findWork(w *Worker) *Task {
	if e.idle.Load() == 0 {
		// No parked worker: producers only consult the searcher count
		// to skip signals aimed at idle workers, so registering buys
		// nothing, and park's under-mutex re-check closes the race
		// with concurrent pushes. One sweep suffices.
		return e.sweep(w)
	}
	e.searchers.Add(1)
	// One counted sweep, one post-decrement sweep: the Dekker minimum.
	// Longer spinning would only help when a producer is mid-push, and
	// park's under-mutex handoff already covers the common wake; sweeps
	// are not free on the way down.
	if t := e.sweep(w); t != nil {
		if e.searchers.Add(-1) == 0 {
			// The counted sweep succeeded, so the post-decrement sweep
			// that normally closes the race with signal-eliding
			// producers will not run. As the last searcher, hand the
			// scanning duty to a parked worker (the Go scheduler's
			// resetspinning/wakep move) so a push elided against our
			// count cannot strand in the injector.
			e.wakeOne()
		}
		return t
	}
	e.searchers.Add(-1)
	// Final sweep after leaving the searcher count: closes the race
	// with producers that skipped the wake because they saw us
	// counted. Must be a *complete* sweep.
	return e.sweep(w)
}

// sweep polls every work source once: own next slot, the injector,
// then every victim's next slot, starting at w.id % n so thieves do
// not all try the same victim first. A victim's slot holds the task
// its owner would run next; it is still there only when the owner is
// blocked or busy, which is when it should move.
func (e *Executor) sweep(w *Worker) *Task {
	if t := w.takeNext(); t != nil {
		return t
	}
	if t := e.tryInjector(); t != nil {
		return t
	}
	victims := *e.snap.Load()
	n := len(victims)
	if n == 0 {
		return nil
	}
	if obs.Enabled() {
		stealAttempts.Add(1)
	}
	start := w.id % n
	for i := 0; i < n; i++ {
		v := victims[(start+i)%n]
		if v == w {
			continue
		}
		if t := v.takeNext(); t != nil {
			e.steals.Add(1)
			if obs.Enabled() {
				stealHits.Add(1)
				w.ring.Emit(obs.KindSteal, uint64(v.id), 1)
			}
			return t
		}
	}
	return nil
}

// wakeOne promotes one parked worker unless a searcher is already
// scanning (it will find the work itself).
func (e *Executor) wakeOne() {
	if e.searchers.Load() > 1 { // >1: the caller itself is usually counted
		return
	}
	if e.idle.Load() == 0 {
		return
	}
	e.mu.Lock()
	e.cond.Signal()
	e.mu.Unlock()
}

// park blocks w until new work may exist, or retires it (retire true)
// when the pool is stopping or clearly surplus. On wake it pops the
// injector under the mutex it already holds — the common wake reason
// is an injected (or blocking-flushed) task, and handing it over here
// saves the woken worker a separate lock acquisition. The worker
// registers as idle *before* its final emptiness check: a producer
// that read idle == 0 (and skipped the signal) is therefore sequenced
// before the registration, so this check sees its push; a producer
// that read idle > 0 takes the mutex and its signal either finds us in
// Wait or goes to another parked worker.
func (e *Executor) park(w *Worker) (t *Task, retire bool) {
	e.mu.Lock()
	e.idle.Add(1)
	if e.injHead < len(e.injector) {
		e.idle.Add(-1)
		t = e.popInjectorLocked()
		e.mu.Unlock()
		return t, false
	}
	if e.anyWorkLocked() {
		e.idle.Add(-1)
		e.mu.Unlock()
		return nil, false // stealable work somewhere; go around again
	}
	// No work anywhere: retire if stopping or clearly surplus, else
	// park. The 2x hysteresis keeps a spare pool of compensation
	// workers around between blocking bursts — without it, a workload
	// that blocks on every operation (a synchronous delegation ring)
	// would spawn and retire a goroutine per operation.
	if e.stopped || e.workers-e.blocked > 2*e.target {
		e.idle.Add(-1)
		e.removeWorkerLocked(w)
		e.mu.Unlock()
		return nil, true
	}
	e.workerParks.Add(1)
	var parkedAt int64
	if obs.Enabled() {
		parkedAt = obs.Now()
	}
	e.cond.Wait()
	if parkedAt != 0 {
		d := obs.Now() - parkedAt
		parkHist.ObserveShard(w.id, d)
		w.ring.Emit(obs.KindWorkerPark, 0, d)
	}
	e.idle.Add(-1)
	if e.injHead < len(e.injector) {
		t = e.popInjectorLocked()
	}
	e.mu.Unlock()
	return t, false
}

// anyWorkLocked reports whether any worker's next slot appears
// non-empty. Caller holds e.mu. Items seen here are either
// being drained by their owner or stranded behind a blocked owner — in
// both cases the right move for the caller is another steal sweep, not
// sleep.
func (e *Executor) anyWorkLocked() bool {
	for _, v := range e.list {
		if v.next.Load() != nil {
			return true
		}
	}
	return false
}

// BlockingBegin declares that the calling worker is about to block on
// something only another Runnable's progress can release. If the pool
// would be left without an available worker below target, a
// replacement is spawned before the caller parks. Pass the worker the
// calling code runs on (nil when unknown or not on a pool worker):
// its next slot is republished through the injector — the caller
// cannot run that task while blocked, and handing it over directly
// saves whoever picks it up a full steal sweep. A slot that could not
// be flushed (unknown w) stays stealable.
func (e *Executor) BlockingBegin(w *Worker) {
	e.mu.Lock()
	e.blocked++
	flushed := false
	if w != nil && w.e == e {
		w.blocking++
		if t := w.takeNext(); t != nil {
			e.injector = append(e.injector, t)
			e.injCount.Add(1)
			e.injPushes.Add(1)
			flushed = true
		}
	}
	if e.workers-e.blocked < e.target && e.idle.Load() == 0 && !e.stopped {
		e.spawnLocked()
	} else if (flushed || w == nil) && e.idle.Load() > 0 {
		// A parked worker may be the only one able to run whatever the
		// caller readied before blocking (a lone local handoff issues
		// no wake of its own); rouse one. With an unknown worker the
		// caller's slot could not be flushed, so signal
		// unconditionally rather than assume it was empty.
		e.cond.Signal()
	}
	e.mu.Unlock()
}

// BlockingEnd undoes BlockingBegin; surplus workers retire lazily.
// Pass the same worker (or nil) as the matching BlockingBegin.
func (e *Executor) BlockingEnd(w *Worker) {
	e.mu.Lock()
	e.blocked--
	if w != nil && w.e == e {
		w.blocking--
	}
	e.mu.Unlock()
}

// Stop shuts the pool down and waits for every worker to exit. Pending
// ready work — injected or in any next slot — is drained first; Ready
// calls after Stop are dropped. The caller must ensure no worker is
// still inside a blocking section that only future Ready work could
// release.
func (e *Executor) Stop() {
	e.mu.Lock()
	e.stopped = true
	e.stopping.Store(true)
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}

// Counters reports the number of compensation workers spawned beyond
// the initial pool and the number of times a worker parked idle.
func (e *Executor) Counters() (spawns, parks int64) {
	return e.spawns.Load(), e.workerParks.Load()
}

// StealCounters reports the scheduler's traffic: tasks stolen from
// other workers' next slots, tasks routed through the shared injector,
// and tasks fast-pathed into a worker's next slot.
func (e *Executor) StealCounters() (steals, injectorPushes, localPushes int64) {
	return e.steals.Load(), e.injPushes.Load(), e.localPushes.Load()
}

// TaskSteals reports how many parallel-loop chunks helper tasks have
// run: the skeletons' work that left the calling goroutine.
func (e *Executor) TaskSteals() int64 {
	return e.taskSteals.Load()
}
