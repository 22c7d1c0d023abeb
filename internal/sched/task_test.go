package sched

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// The fork-join tests below were migrated from internal/tbb when its
// standalone pool was folded into this executor; the skeleton tests
// keep the same shapes (range coverage, deterministic reduce order,
// stable sort, nested parallelism) so the port is checked against the
// seed pool's contract.

func TestTaskGroupSpawnRunsAll(t *testing.T) {
	e := NewExecutor(4)
	defer e.Stop()
	var count atomic.Int64
	g := e.NewGroup()
	for i := 0; i < 1000; i++ {
		g.Spawn(nil, func(*Worker) { count.Add(1) })
	}
	g.Wait(nil)
	if count.Load() != 1000 {
		t.Fatalf("count = %d, want 1000", count.Load())
	}
	spawned, _, _ := e.TaskCounters()
	if spawned != 1000 {
		t.Fatalf("TasksSpawned = %d, want 1000", spawned)
	}
}

func TestTaskGroupReuseAcrossPhases(t *testing.T) {
	e := NewExecutor(2)
	defer e.Stop()
	g := e.NewGroup()
	var count atomic.Int64
	for phase := 0; phase < 5; phase++ {
		for i := 0; i < 100; i++ {
			g.Spawn(nil, func(*Worker) { count.Add(1) })
		}
		g.Wait(nil)
		if got := count.Load(); got != int64((phase+1)*100) {
			t.Fatalf("phase %d: count = %d", phase, got)
		}
	}
}

// Spawned tasks receive the worker that executes them and can spawn
// nested work through the local fast path.
func TestTaskGroupNestedSpawn(t *testing.T) {
	e := NewExecutor(2)
	defer e.Stop()
	var count atomic.Int64
	g := e.NewGroup()
	for i := 0; i < 10; i++ {
		g.Spawn(nil, func(w *Worker) {
			for j := 0; j < 10; j++ {
				g.Spawn(w, func(*Worker) { count.Add(1) })
			}
		})
	}
	g.Wait(nil)
	if count.Load() != 100 {
		t.Fatalf("count = %d, want 100", count.Load())
	}
}

// A chain of groups nested far deeper than the worker count: each task
// spawns one child into a fresh group and waits for it. Every level's
// Wait must either help (the child sits in its own deque) or park with
// blocking compensation — either way the chain cannot deadlock even on
// a single-worker pool.
func TestTaskNestedSpawnDeeperThanPool(t *testing.T) {
	for _, workers := range []int{1, 2} {
		e := NewExecutor(workers)
		const depth = 64
		var reached atomic.Int64
		var descend func(w *Worker, level int)
		descend = func(w *Worker, level int) {
			reached.Add(1)
			if level == depth {
				return
			}
			g := e.NewGroup()
			g.Spawn(w, func(w2 *Worker) { descend(w2, level+1) })
			g.Wait(w)
		}
		root := e.NewGroup()
		root.Spawn(nil, func(w *Worker) { descend(w, 1) })
		root.Wait(nil)
		if got := reached.Load(); got != depth {
			t.Fatalf("workers=%d: reached %d levels, want %d", workers, got, depth)
		}
		e.Stop()
	}
}

// Wait called from inside an ordinary Runnable step (the handler case):
// the step occupies the worker for its whole duration, so on a
// single-worker pool the join must find the spawned tasks by helping —
// they are in that same worker's deque — and must not park the only
// worker against work only it can run.
func TestTaskWaitInsideRunnableStep(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := NewExecutor(workers)
		var inner atomic.Int64
		done := make(chan struct{})
		e.Ready(NewTask(ctxRunnable(func(w *Worker) {
			g := e.NewGroup()
			for i := 0; i < 100; i++ {
				g.Spawn(w, func(*Worker) { inner.Add(1) })
			}
			g.Wait(w)
			close(done)
		})))
		<-done
		if inner.Load() != 100 {
			t.Fatalf("workers=%d: inner = %d, want 100", workers, inner.Load())
		}
		e.Stop()
	}
}

// A runnable step that calls the skeletons without knowing its worker
// (the shape client code inside a handler Call has): Wait(nil) must
// still complete via injector/steal helping plus compensation.
func TestTaskWaitNilWorkerInsideStep(t *testing.T) {
	e := NewExecutor(1)
	defer e.Stop()
	done := make(chan struct{})
	var total atomic.Int64
	e.Ready(task(func() {
		ParallelFor(e, 0, 1000, 16, func(lo, hi int) {
			total.Add(int64(hi - lo))
		})
		close(done)
	}))
	<-done
	if total.Load() != 1000 {
		t.Fatalf("total = %d, want 1000", total.Load())
	}
}

func TestTaskPanicPropagatesToWait(t *testing.T) {
	e := NewExecutor(2)
	defer e.Stop()
	g := e.NewGroup()
	var after atomic.Int64
	for i := 0; i < 20; i++ {
		i := i
		g.Spawn(nil, func(*Worker) {
			if i == 7 {
				panic("boom 7")
			}
			after.Add(1)
		})
	}
	caught := func() (v any) {
		defer func() { v = recover() }()
		g.Wait(nil)
		return nil
	}()
	if caught != "boom 7" {
		t.Fatalf("Wait recovered %v, want \"boom 7\"", caught)
	}
	// All sibling tasks still ran: a panic fails the join, not the pool.
	if after.Load() != 19 {
		t.Fatalf("siblings ran %d times, want 19", after.Load())
	}
	// The group is clean after the panic was delivered once.
	g.Spawn(nil, func(*Worker) {})
	g.Wait(nil) // must not re-panic
}

func TestTaskPanicNilValue(t *testing.T) {
	e := NewExecutor(1)
	defer e.Stop()
	g := e.NewGroup()
	g.Spawn(nil, func(*Worker) { panic(error(nil)) })
	caught := false
	func() {
		defer func() {
			recover() // value is nil-ish; arrival is what matters
			caught = true
		}()
		g.Wait(nil)
	}()
	if !caught {
		t.Fatal("panic from task was lost")
	}
}

// Randomized steal stress (migrated from the tbb deque's exactly-once
// property test): many spawners racing thieves, every task exactly once.
func TestTaskSpawnExactlyOnceUnderStealing(t *testing.T) {
	e := NewExecutor(4)
	defer e.Stop()
	const n = 50000
	seen := make([]atomic.Int32, n)
	g := e.NewGroup()
	// Spawn from inside tasks so spawns hit worker-local deques and get
	// stolen, not just the injector.
	const spawners = 8
	per := n / spawners
	for s := 0; s < spawners; s++ {
		s := s
		g.Spawn(nil, func(w *Worker) {
			for i := s * per; i < (s+1)*per; i++ {
				i := i
				g.Spawn(w, func(*Worker) { seen[i].Add(1) })
			}
		})
	}
	g.Wait(nil)
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("task %d executed %d times", i, c)
		}
	}
}

// Mixed handler+task steal storm: long-lived runnables that keep
// re-enqueueing themselves (handler traffic) share the workers with a
// fork-join wave. Run under -race at GOMAXPROCS 1 and 4 in CI.
func TestTaskMixedHandlerStealStorm(t *testing.T) {
	e := NewExecutor(4)
	defer e.Stop()
	const handlers = 8
	var handlerSteps atomic.Int64
	var stop atomic.Bool
	var idle sync.WaitGroup
	var step func(w *Worker)
	step = func(w *Worker) {
		handlerSteps.Add(1)
		if !stop.Load() {
			e.ReadyLocal(w, NewTask(ctxRunnable(step)))
		} else {
			idle.Done()
		}
	}
	for i := 0; i < handlers; i++ {
		idle.Add(1)
		e.Ready(NewTask(ctxRunnable(step)))
	}
	var total atomic.Int64
	for round := 0; round < 20; round++ {
		ParallelFor(e, 0, 4096, 8, func(lo, hi int) {
			total.Add(int64(hi - lo))
		})
	}
	stop.Store(true)
	idle.Wait()
	if got := total.Load(); got != 20*4096 {
		t.Fatalf("fork-join covered %d, want %d", got, 20*4096)
	}
	if handlerSteps.Load() < handlers {
		t.Fatalf("handlers starved: %d steps", handlerSteps.Load())
	}
}

func TestParallelForCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		e := NewExecutor(workers)
		const n = 10000
		marks := make([]atomic.Int32, n)
		ParallelFor(e, 0, n, 64, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				marks[i].Add(1)
			}
		})
		for i := range marks {
			if c := marks[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
		e.Stop()
	}
}

func TestParallelForEmptyAndTiny(t *testing.T) {
	e := NewExecutor(2)
	defer e.Stop()
	ran := false
	ParallelFor(e, 5, 5, 10, func(lo, hi int) { ran = true })
	if ran {
		t.Fatal("body ran on empty range")
	}
	total := 0
	ParallelFor(e, 3, 4, 100, func(lo, hi int) { total += hi - lo })
	if total != 1 {
		t.Fatalf("tiny range covered %d, want 1", total)
	}
}

func TestParallelReduceSum(t *testing.T) {
	for _, workers := range []int{1, 3} {
		e := NewExecutor(workers)
		const n = 100000
		got := ParallelReduce(e, 0, n, 128,
			func(lo, hi int) int64 {
				var s int64
				for i := lo; i < hi; i++ {
					s += int64(i)
				}
				return s
			},
			func(a, b int64) int64 { return a + b })
		want := int64(n) * (n - 1) / 2
		if got != want {
			t.Fatalf("workers=%d: sum = %d, want %d", workers, got, want)
		}
		e.Stop()
	}
}

func TestParallelReduceDeterministicOrder(t *testing.T) {
	// Non-commutative combine (string concat) must still be
	// deterministic because combines happen in range order.
	e := NewExecutor(4)
	defer e.Stop()
	want := ""
	for i := 0; i < 100; i++ {
		want += string(rune('a' + i%26))
	}
	for round := 0; round < 10; round++ {
		got := ParallelReduce(e, 0, 100, 3,
			func(lo, hi int) string {
				s := ""
				for i := lo; i < hi; i++ {
					s += string(rune('a' + i%26))
				}
				return s
			},
			func(a, b string) string { return a + b })
		if got != want {
			t.Fatalf("round %d: non-deterministic reduce", round)
		}
	}
}

func TestNestedParallelFor(t *testing.T) {
	e := NewExecutor(2)
	defer e.Stop()
	var count atomic.Int64
	ParallelFor(e, 0, 10, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ParallelFor(e, 0, 10, 1, func(l2, h2 int) {
				count.Add(int64(h2 - l2))
			})
		}
	})
	if count.Load() != 100 {
		t.Fatalf("count = %d, want 100", count.Load())
	}
}

func TestParallelSortSorts(t *testing.T) {
	e := NewExecutor(3)
	defer e.Stop()
	rng := rand.New(rand.NewSource(7))
	data := make([]int, 50000)
	for i := range data {
		data[i] = rng.Intn(1000)
	}
	want := append([]int(nil), data...)
	sort.Ints(want)
	ParallelSort(e, data, func(a, b int) bool { return a < b })
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("mismatch at %d: %d vs %d", i, data[i], want[i])
		}
	}
}

func TestParallelSortStable(t *testing.T) {
	type kv struct{ k, pos int }
	e := NewExecutor(4)
	defer e.Stop()
	rng := rand.New(rand.NewSource(3))
	data := make([]kv, 30000)
	for i := range data {
		data[i] = kv{k: rng.Intn(8), pos: i}
	}
	ParallelSort(e, data, func(a, b kv) bool { return a.k < b.k })
	for i := 1; i < len(data); i++ {
		if data[i-1].k == data[i].k && data[i-1].pos > data[i].pos {
			t.Fatalf("instability at %d: equal keys out of original order", i)
		}
		if data[i-1].k > data[i].k {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestParallelSortQuick(t *testing.T) {
	e := NewExecutor(2)
	defer e.Stop()
	f := func(data []int16) bool {
		d := make([]int, len(data))
		for i, v := range data {
			d[i] = int(v)
		}
		want := append([]int(nil), d...)
		sort.Ints(want)
		ParallelSort(e, d, func(a, b int) bool { return a < b })
		for i := range d {
			if d[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTaskCountersAdvance(t *testing.T) {
	e := NewExecutor(4)
	defer e.Stop()
	ParallelFor(e, 0, 100000, 16, func(lo, hi int) {})
	spawned, steals, parks := e.TaskCounters()
	if spawned == 0 {
		t.Fatal("TasksSpawned did not advance")
	}
	// Steals and parks are load-dependent; just require sanity.
	if steals < 0 || parks < 0 {
		t.Fatalf("negative counters: steals=%d parks=%d", steals, parks)
	}
}

// TestTaskWaitParksUntilLastFinish drives a join down its park path: its
// group's only task is running on a worker, blocked until released, so
// helping finds nothing to run and Wait must park, once, and return
// only after that task has finished.
func TestTaskWaitParksUntilLastFinish(t *testing.T) {
	e := NewExecutor(2)
	defer e.Stop()
	g := e.NewGroup()
	started, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	g.Spawn(nil, func(*Worker) {
		close(started)
		<-release
		finished.Store(true)
	})
	<-started
	joined := make(chan bool, 1)
	go func() {
		g.Wait(nil)
		joined <- finished.Load()
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, _, parks := e.TaskCounters(); parks == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the join never parked")
		}
	}
	select {
	case <-joined:
		t.Fatal("Wait returned while its only task still ran")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	select {
	case ok := <-joined:
		if !ok {
			t.Fatal("Wait returned before its task finished")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait still parked after the last task finished")
	}
	if _, _, parks := e.TaskCounters(); parks != 1 {
		t.Errorf("TaskWaitParks = %d, want 1", parks)
	}
}
