package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// funcRunnable adapts a closure to Runnable for tests.
type funcRunnable func()

func (f funcRunnable) Step(*Worker) { f() }

// task wraps a closure in a fresh Task.
func task(f func()) *Task { return NewTask(funcRunnable(f)) }

// ctxRunnable adapts a worker-aware closure to Runnable.
type ctxRunnable func(w *Worker)

func (f ctxRunnable) Step(w *Worker) { f(w) }

func TestExecutorRunsReadyWork(t *testing.T) {
	e := NewExecutor(4)
	defer e.Stop()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		e.Ready(task(func() {
			n.Add(1)
			wg.Done()
		}))
	}
	wg.Wait()
	if got := n.Load(); got != 100 {
		t.Fatalf("ran %d steps, want 100", got)
	}
}

func TestExecutorStopDrainsPendingWork(t *testing.T) {
	e := NewExecutor(2)
	var n atomic.Int64
	for i := 0; i < 50; i++ {
		e.Ready(task(func() { n.Add(1) }))
	}
	e.Stop() // must not return before queued work ran
	if got := n.Load(); got != 50 {
		t.Fatalf("Stop returned with %d/50 steps run", got)
	}
}

func TestExecutorReadyAfterStopIsDropped(t *testing.T) {
	e := NewExecutor(1)
	e.Stop()
	ran := make(chan struct{})
	e.Ready(task(func() { close(ran) }))
	select {
	case <-ran:
		t.Fatal("Ready after Stop executed work")
	case <-time.After(50 * time.Millisecond):
	}
}

// A single-worker pool whose only worker blocks must spawn a
// compensation worker, so work the blocked one depends on still runs.
func TestExecutorBlockingCompensation(t *testing.T) {
	e := NewExecutor(1)
	defer e.Stop()
	release := make(chan struct{})
	done := make(chan struct{})
	e.Ready(task(func() {
		e.BlockingBegin(nil)
		<-release // needs the second runnable to make progress
		e.BlockingEnd(nil)
		close(done)
	}))
	e.Ready(task(func() { close(release) }))
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pool deadlocked despite blocking compensation")
	}
	spawns, _ := e.Counters()
	if spawns < 1 {
		t.Fatalf("expected at least one compensation spawn, got %d", spawns)
	}
}

// A task in the blocking worker's next slot must be stolen by the
// compensation worker — the delegation pattern: a handler wakes its
// dependency locally, then blocks on it.
func TestExecutorBlockedNextIsStolen(t *testing.T) {
	e := NewExecutor(1)
	defer e.Stop()
	done := make(chan struct{})
	release := make(chan struct{})
	e.Ready(NewTask(ctxRunnable(func(w *Worker) {
		// Declaring the worker disables the lone-handoff wake elision
		// for pushes made inside the section: the push below must be
		// announced, because only a steal can run it while we block.
		e.BlockingBegin(w)
		// Let the compensation worker sweep, find nothing, and park
		// before the push: an elided wake here would strand the task
		// (regression for the lone-handoff/blocking-section deadlock).
		time.Sleep(50 * time.Millisecond)
		e.ReadyLocal(w, task(func() { close(release) }))
		<-release
		e.BlockingEnd(w)
		close(done)
	})))
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("locally pushed dependency was never stolen from the blocked worker")
	}
	if steals, _, _ := e.StealCounters(); steals < 1 {
		t.Fatalf("expected the dependency to be stolen, steals=%d", steals)
	}
}

// A chain of nested blocking sections much deeper than the pool must
// complete: each blocked worker hands its slot to a replacement. The
// test waits for every blocking section to finish before Stop — Stop's
// contract drops late Ready calls, and a producer may still be between
// its two pushes when the deepest level is reached.
func TestExecutorDeepBlockingChain(t *testing.T) {
	const depth = 32
	e := NewExecutor(2)
	defer e.Stop()
	done := make(chan struct{})
	var wg sync.WaitGroup
	var spawn func(level int)
	spawn = func(level int) {
		if level == depth {
			close(done)
			return
		}
		inner := make(chan struct{})
		wg.Add(1)
		e.Ready(task(func() {
			e.BlockingBegin(nil)
			spawn(level + 1) // runs on another worker
			<-inner
			e.BlockingEnd(nil)
			wg.Done()
		}))
		e.Ready(task(func() { close(inner) }))
	}
	spawn(0)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deep blocking chain starved the pool")
	}
	wg.Wait() // all sections done; every Ready has been issued
}

func TestExecutorParksIdleWorkers(t *testing.T) {
	e := NewExecutor(2)
	// Give the workers a moment with nothing to do.
	time.Sleep(20 * time.Millisecond)
	_, parks := e.Counters()
	if parks < 1 {
		t.Fatalf("idle workers never parked (parks=%d)", parks)
	}
	e.Stop()
}

func TestNewExecutorRejectsZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewExecutor(0) did not panic")
		}
	}()
	NewExecutor(0)
}

// Fan-out stress: one seed task grows a tree of children through
// ReadyLocal, so every push past the first displaces a sibling onto the
// injector and the other workers get the rest from there or by stealing
// next slots. Asserts completion under -race, that the fan-out went
// through the injector, and that more than one worker ran the tree.
func TestExecutorStealStress(t *testing.T) {
	const workers = 4
	// Dev hosts are often single-core; spreading needs running workers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	e := NewExecutor(workers)
	defer e.Stop()
	var n atomic.Int64
	var ranOn sync.Map // worker id → struct{}
	var wg sync.WaitGroup
	const fanout, depth = 3, 10 // 3^0 + ... + 3^10 tasks
	var grow func(w *Worker, level int)
	grow = func(w *Worker, level int) {
		n.Add(1)
		if _, ok := ranOn.Load(w.id); !ok {
			ranOn.Store(w.id, struct{}{})
		}
		if level == depth {
			wg.Done()
			return
		}
		for i := 0; i < fanout; i++ {
			wg.Add(1)
			child := NewTask(ctxRunnable(func(w *Worker) { grow(w, level+1) }))
			e.ReadyLocal(w, child)
		}
		wg.Done()
	}
	wg.Add(1)
	e.Ready(NewTask(ctxRunnable(func(w *Worker) { grow(w, 0) })))
	wg.Wait()
	want := int64(0)
	for l, p := 0, int64(1); l <= depth; l, p = l+1, p*fanout {
		want += p
	}
	if got := n.Load(); got != want {
		t.Fatalf("ran %d tasks, want %d", got, want)
	}
	_, injPushes, localPushes := e.StealCounters()
	if localPushes == 0 {
		t.Fatalf("tree never used the local-push fast path (local=%d inj=%d)", localPushes, injPushes)
	}
	if injPushes <= 1 {
		t.Fatalf("no displaced task reached the injector (local=%d inj=%d)", localPushes, injPushes)
	}
	ids := 0
	ranOn.Range(func(any, any) bool { ids++; return true })
	if ids < 2 {
		t.Fatalf("a %d-worker fan-out tree ran on %d worker(s)", workers, ids)
	}
}

// Every ReadyLocal past the first displaces the task in the next slot;
// the displaced task goes to the injector and still runs. One worker,
// so no thief can empty the slot between pushes and the counts are
// exact: the seed's Ready plus 767 displacements.
func TestExecutorDisplacedNextGoesToInjector(t *testing.T) {
	e := NewExecutor(1)
	defer e.Stop()
	const total = 768
	var n atomic.Int64
	var wg sync.WaitGroup
	wg.Add(total + 1)
	e.Ready(NewTask(ctxRunnable(func(w *Worker) {
		for i := 0; i < total; i++ {
			e.ReadyLocal(w, task(func() {
				n.Add(1)
				wg.Done()
			}))
		}
		wg.Done()
	})))
	wg.Wait()
	if got := n.Load(); got != total {
		t.Fatalf("ran %d tasks, want %d", got, total)
	}
	_, injPushes, localPushes := e.StealCounters()
	if localPushes != total || injPushes != total {
		t.Fatalf("local=%d inj=%d, want %d and %d (the seed plus %d displaced)", localPushes, injPushes, total, total, total-1)
	}
}

// ClaimNext takes a task back out of the caller's own next slot, and
// nothing else: not a task the slot does not hold, not from a nil or
// foreign worker. A claimed task is the caller's, and no worker runs it.
func TestExecutorClaimNext(t *testing.T) {
	e, other := NewExecutor(1), NewExecutor(1)
	defer other.Stop()
	var ran atomic.Int64
	queued, absent := task(func() { ran.Add(1) }), task(func() { ran.Add(1) })
	errs := make(chan string, 4)
	done := make(chan struct{})
	e.Ready(NewTask(ctxRunnable(func(w *Worker) {
		defer close(done)
		e.ReadyLocal(w, queued)
		if e.ClaimNext(w, absent) {
			errs <- "claimed a task the slot does not hold"
		}
		if e.ClaimNext(nil, queued) || other.ClaimNext(w, queued) {
			errs <- "claimed through a nil or foreign worker"
		}
		if !e.ClaimNext(w, queued) {
			errs <- "could not claim the task in its own slot"
		}
		if e.ClaimNext(w, queued) {
			errs <- "claimed the same task twice"
		}
	})))
	<-done
	e.Stop() // runs whatever is still queued
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if got := ran.Load(); got != 0 {
		t.Errorf("%d tasks ran, want 0: the claimed one is the caller's to run", got)
	}
}

// Park/wake storm: external producers hammer Ready from many
// goroutines while workers cycle between stealing, draining, and
// parking. Exercises the searcher/idle wake protocol for lost wakeups.
func TestExecutorParkWakeStorm(t *testing.T) {
	e := NewExecutor(4)
	defer e.Stop()
	const producers = 8
	const perProducer = 500
	var n atomic.Int64
	var wg sync.WaitGroup
	wg.Add(producers * perProducer)
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for i := 0; i < perProducer; i++ {
				e.Ready(task(func() {
					n.Add(1)
					wg.Done()
				}))
				if i%17 == 0 {
					runtime.Gosched() // let workers drain and park
				}
			}
		}()
	}
	pwg.Wait()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("storm lost wakeups: %d/%d tasks ran", n.Load(), producers*perProducer)
	}
}

// Stop while other workers are mid-steal: tasks keep fanning out
// through next slots and the injector as Stop lands; everything
// accepted before the stop must still run, and Stop must not hang.
func TestExecutorStopWhileStealing(t *testing.T) {
	for round := 0; round < 10; round++ {
		e := NewExecutor(4)
		var started, finished atomic.Int64
		var grow func(w *Worker, level int)
		grow = func(w *Worker, level int) {
			started.Add(1)
			if level < 6 {
				for i := 0; i < 2; i++ {
					e.ReadyLocal(w, NewTask(ctxRunnable(func(w *Worker) { grow(w, level+1) })))
				}
			}
			finished.Add(1)
		}
		e.Ready(NewTask(ctxRunnable(func(w *Worker) { grow(w, 0) })))
		runtime.Gosched()
		e.Stop() // must drain whatever was accepted, then return
		if s, f := started.Load(), finished.Load(); s != f {
			t.Fatalf("round %d: %d tasks started but %d finished after Stop", round, s, f)
		}
	}
}
