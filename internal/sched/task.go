package sched

import (
	"sync"
	"sync/atomic"

	"scoopqs/internal/obs"
)

// This file is the fork-join layer of the executor: one-shot data-
// parallel tasks sharing the scheduling substrate (per-worker Chase–Lev
// deques, runnext buffers, injector, wake protocol) with the handler
// state machines. A spawned task is an ordinary *Task in the queues —
// a spawning worker pushes it onto its own deque through the ReadyLocal
// fast path and idle workers steal it exactly like a handler step — so
// one scheduler serves both the message-passing runtime and the
// TBB-style parallel skeletons (ParallelFor and friends in
// parallel.go), and the two workloads contend for the same workers
// instead of fighting across two pools.
//
// The join is TBB's helping join, adapted to a mixed queue: a waiter
// first executes *fork-join* work it can find (its own local queues,
// the injector, victims' deques), which makes joins deadlock-free even
// on a single-worker pool — the spawned task may be sitting in the
// waiter's own deque. Handler runnables found while helping are not run
// (a join must not nest an unbounded handler drain mid-wait); they are
// republished through the injector for the regular workers. A waiter
// that finds no runnable task parks, bracketed by BlockingBegin/End so
// the pool compensates: task waits compose with handler blocking
// exactly like any other blocking client code.

// waitSpins is how many empty help rounds a waiter performs (with
// SpinWait backoff) before parking on the group. Parking costs a
// park/unpark cycle plus possibly a compensation spawn; the tail of a
// join is usually one in-flight leaf away.
const waitSpins = 32

// taskPanic boxes a panic value recovered from a spawned task so a nil
// interface panic survives the trip through an atomic pointer.
type taskPanic struct{ v any }

// TaskGroup tracks a set of spawned fork-join tasks so a caller can
// Wait for all of them. Groups nest freely: a spawned task may create
// its own group and spawn into it (the parallel skeletons do exactly
// that at every split). A group may be reused for another fork-join
// phase once Wait has returned.
//
// The executor must not be stopped while a group has tasks outstanding:
// Stop drains queued work, but spawns racing Stop are dropped like any
// other enqueue and would leave Wait pending forever.
type TaskGroup struct {
	e       *Executor
	pending atomic.Int64
	panicV  atomic.Pointer[taskPanic] // first task panic, re-raised by Wait

	mu   sync.Mutex
	done sync.Cond // over mu: parked joins, broadcast by the last finish
}

// NewGroup returns an empty fork-join group on this executor.
func (e *Executor) NewGroup() *TaskGroup {
	g := &TaskGroup{e: e}
	g.done.L = &g.mu
	return g
}

// funcTask is one spawned closure: a one-shot Runnable carrying its own
// scheduling token, so a spawn costs a single allocation. Its concrete
// type is how the scheduler tells fork-join work from handler work
// (steal accounting, the helping join's run-or-republish decision).
type funcTask struct {
	tok Task
	g   *TaskGroup
	fn  func(*Worker)
}

// Step runs the closure once. A panic is captured into the group (first
// one wins) rather than unwinding the worker, and is re-raised at the
// join point; the group is decremented on every exit path so Wait can
// never hang on a panicked task.
func (ft *funcTask) Step(w *Worker) {
	g := ft.g
	defer func() {
		if r := recover(); r != nil {
			g.panicV.CompareAndSwap(nil, &taskPanic{v: r})
		}
		g.finish()
	}()
	ft.fn(w)
}

// isTask reports whether t is fork-join work (as opposed to a handler
// state machine or other long-lived Runnable).
func isTask(t *Task) bool {
	_, ok := t.r.(*funcTask)
	return ok
}

// Spawn schedules fn as one task of the group. Pass the worker the
// calling code runs on so the task takes the local deque fast path —
// it is then typically the spawner's or a thief's very next dispatch;
// a nil w (the caller is not on a pool worker, or does not know its
// worker) routes through the shared injector. fn receives the worker
// that eventually executes it, for nested spawns.
func (g *TaskGroup) Spawn(w *Worker, fn func(*Worker)) {
	g.pending.Add(1)
	g.e.tasksSpawned.Add(1)
	if obs.Enabled() {
		emitOn(w, obs.KindTaskSpawn, 0, 0)
	}
	ft := &funcTask{g: g, fn: fn}
	ft.tok.r = ft
	g.e.ReadyLocal(w, &ft.tok)
}

// finish retires one task; the last one out wakes every parked join.
// The decrement is outside the mutex and the broadcast under it, so it
// pairs with Wait's under-mutex pending check: a join that checked
// before the final decrement is waiting by the broadcast, and one that
// checks after it observes pending == 0 and never parks.
func (g *TaskGroup) finish() {
	if g.pending.Add(-1) != 0 {
		return
	}
	g.mu.Lock()
	g.done.Broadcast()
	g.mu.Unlock()
}

// Wait blocks until every task spawned into the group has finished,
// helping execute fork-join work while it waits. Pass the worker the
// calling code runs on (nil when unknown or external), exactly as for
// Spawn. If any task panicked, Wait re-panics with the first captured
// value once all tasks have finished.
//
// Wait may be called from inside a handler step or a spawned task: the
// helping loop keeps the worker productive, and when nothing runnable
// remains the park is bracketed with BlockingBegin/End so the pool
// spawns a replacement worker rather than deadlocking — a task wait is
// just another blocking section to the compensation machinery.
func (g *TaskGroup) Wait(w *Worker) {
	e := g.e
	if w != nil && w.e != e {
		w = nil
	}
	if obs.Enabled() {
		t0 := obs.Now()
		defer func() {
			d := obs.Now() - t0
			taskWaitHist.Observe(d)
			emitOn(w, obs.KindTaskJoin, 0, d)
		}()
	}
	idle := 0
	for g.pending.Load() > 0 {
		if g.helpOnce(w) {
			idle = 0
			continue
		}
		idle++
		if idle <= waitSpins {
			SpinWait(idle)
			continue
		}
		// Nothing runnable anywhere and still pending: the remaining
		// tasks are in flight on other goroutines. Park until the last
		// one completes the group. pending is re-checked under the
		// group mutex (see finish), so the wake cannot be lost;
		// BlockingBegin flushes this worker's (empty) local queues and
		// keeps the pool's worker budget whole.
		g.mu.Lock()
		if g.pending.Load() > 0 {
			e.taskWaitParks.Add(1)
			e.BlockingBegin(w)
			for g.pending.Load() > 0 {
				g.done.Wait()
			}
			e.BlockingEnd(w)
		}
		g.mu.Unlock()
		idle = 0
	}
	if p := g.panicV.Swap(nil); p != nil {
		panic(p.v)
	}
}

// helpOnce finds and runs one fork-join task from any source, in the
// same order a worker searches: own next slot and deque (worker
// callers only), the injector, then victims' deques in randomized
// order. It reports whether it ran a task. Non-task work it uncovers —
// a handler runnable at the head of the waiter's own deque or the
// injector — is republished through the injector for the regular
// workers: the waiter would have flushed it there anyway had it parked,
// and a join must not execute an open-ended handler drain.
func (g *TaskGroup) helpOnce(w *Worker) bool {
	e := g.e
	if w != nil {
		for {
			t := w.takeNext()
			if t == nil {
				t = w.dq.pop()
			}
			if t == nil {
				break
			}
			if isTask(t) {
				noteDispatchAny(w, t)
				t.r.Step(w)
				return true
			}
			e.Ready(t)
		}
	}
	// One injector pop per round: re-popping our own republished
	// non-task entries in a loop would spin the FIFO.
	if t := e.tryInjector(); t != nil {
		if isTask(t) {
			noteDispatchAny(w, t)
			t.r.Step(w)
			return true
		}
		e.Ready(t)
	}
	victims := *e.snap.Load()
	n := len(victims)
	if n == 0 {
		return false
	}
	start := 0
	if w != nil {
		w.rng ^= w.rng << 13
		w.rng ^= w.rng >> 7
		w.rng ^= w.rng << 17
		start = int(w.rng % uint64(n))
	} else {
		start = int(e.helpSeq.Add(1) % uint64(n))
	}
	for i := 0; i < n; i++ {
		v := victims[(start+i)%n]
		if v == w {
			continue
		}
		t := v.dq.steal()
		if t == nil {
			continue // next slots are the owner's; helpers leave them
		}
		if isTask(t) {
			e.taskSteals.Add(1)
			noteDispatchAny(w, t)
			t.r.Step(w)
			return true
		}
		e.Ready(t)
	}
	return false
}
