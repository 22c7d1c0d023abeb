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

// The skeleton tests keep the shapes of the standalone pool the
// skeletons were first written for (range coverage, deterministic
// reduce order, stable sort, nested parallelism), and the tests of the
// retired helping join live on as the properties of the one loop
// behind them: panics, nesting, calls from a handler step, coverage
// under contention, parking, steal accounting.

// waitOrFail waits for ch to close, failing the test after 10 s rather
// than hanging it.
func waitOrFail(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// A call nested far deeper than the worker count: each level's chunk 1
// descends into a fresh call. Whichever goroutine runs it — the caller
// or a helper — waits only on chunks already running, so the chain
// cannot deadlock even on a single-worker pool.
func TestParallelForNestedDeeperThanPool(t *testing.T) {
	for _, workers := range []int{1, 2} {
		e := NewExecutor(workers)
		const depth = 64
		var reached atomic.Int64
		var descend func(level int)
		descend = func(level int) {
			reached.Add(1)
			if level == depth {
				return
			}
			ParallelFor(e, 0, 2, 1, func(lo, hi int) {
				if lo == 1 {
					descend(level + 1)
				}
			})
		}
		done := make(chan struct{})
		go func() { descend(1); close(done) }()
		waitOrFail(t, done, "the nested calls")
		if got := reached.Load(); got != depth {
			t.Fatalf("workers=%d: reached %d levels, want %d", workers, got, depth)
		}
		e.Stop()
	}
}

// A skeleton called from inside a Runnable step (the handler case): the
// step occupies its worker for the whole call, so on a single-worker
// pool every helper is still queued and the caller must run every
// chunk itself.
func TestTaskWaitInsideRunnableStep(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := NewExecutor(workers)
		var sum int64
		done := make(chan struct{})
		e.Ready(NewTask(ctxRunnable(func(*Worker) {
			sum = ParallelReduce(e, 0, 1000, 7,
				func(lo, hi int) int64 { return int64(hi - lo) },
				func(a, b int64) int64 { return a + b })
			close(done)
		})))
		waitOrFail(t, done, "the call inside a step")
		if sum != 1000 {
			t.Fatalf("workers=%d: sum = %d, want 1000", workers, sum)
		}
		e.Stop()
	}
}

// The same from a plain Runnable that does not use its worker, on a
// pool of one.
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
	waitOrFail(t, done, "the call inside a step")
	if total.Load() != 1000 {
		t.Fatalf("total = %d, want 1000", total.Load())
	}
}

func TestTaskPanicPropagatesToWait(t *testing.T) {
	e := NewExecutor(2)
	defer e.Stop()
	var after atomic.Int64
	caught := func() (v any) {
		defer func() { v = recover() }()
		ParallelFor(e, 0, 20, 1, func(lo, hi int) {
			if lo == 7 {
				panic("boom 7")
			}
			after.Add(1)
		})
		return nil
	}()
	if caught != "boom 7" {
		t.Fatalf("caller recovered %v, want \"boom 7\"", caught)
	}
	// Every other chunk still ran: a panic fails the call, not the pool.
	if after.Load() != 19 {
		t.Fatalf("other chunks ran %d times, want 19", after.Load())
	}
	// The executor is clean after the panic was delivered once.
	ParallelFor(e, 0, 20, 1, func(lo, hi int) {})
}

func TestTaskPanicNilValue(t *testing.T) {
	e := NewExecutor(1)
	defer e.Stop()
	caught := false
	func() {
		defer func() {
			caught = recover() != nil // *runtime.PanicNilError
		}()
		ParallelFor(e, 0, 4, 1, func(lo, hi int) {
			if lo == 2 {
				panic(error(nil))
			}
		})
	}()
	if !caught {
		t.Fatal("nil panic from a chunk was lost")
	}
}

// Exactly-once coverage under contention: 8 outer chunks each run a
// nested call over their share, so inner chunks are claimed by callers
// and helpers of several loops at once.
func TestNestedParallelForExactlyOnce(t *testing.T) {
	e := NewExecutor(4)
	defer e.Stop()
	const n, outer = 50000, 8
	seen := make([]atomic.Int32, n)
	ParallelFor(e, 0, outer, 1, func(s, _ int) {
		per := n / outer
		ParallelFor(e, s*per, (s+1)*per, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
		})
	})
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// Mixed handler+task storm: long-lived runnables that keep
// re-enqueueing themselves (handler traffic) share the workers with
// the skeletons' helper tasks. Run under -race at GOMAXPROCS 1 and 4 in
// CI.
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
		t.Fatalf("the loops covered %d, want %d", got, 20*4096)
	}
	if handlerSteps.Load() < handlers {
		t.Fatalf("handlers starved: %d steps", handlerSteps.Load())
	}
}

// On a stopped executor every helper is dropped, so the caller covers
// the whole range itself instead of waiting for helpers that never run.
func TestParallelSkeletonsOnStoppedExecutor(t *testing.T) {
	e := NewExecutor(2)
	e.Stop()
	done := make(chan struct{})
	var covered atomic.Int64
	var sum int
	data := []int{5, 3, 9, 1}
	data = append(data, make([]int, 3*sortGrain)...)
	go func() {
		defer close(done)
		ParallelFor(e, 0, 1000, 10, func(lo, hi int) { covered.Add(int64(hi - lo)) })
		sum = ParallelReduce(e, 0, 100, 10,
			func(lo, hi int) int { return hi - lo },
			func(a, b int) int { return a + b })
		ParallelSort(e, data, func(a, b int) bool { return a < b })
	}()
	waitOrFail(t, done, "the skeletons on a stopped executor")
	if covered.Load() != 1000 || sum != 100 {
		t.Fatalf("covered %d and summed %d, want 1000 and 100", covered.Load(), sum)
	}
	if !sort.IntsAreSorted(data) {
		t.Fatal("ParallelSort left the data unsorted")
	}
}

// Every one of a call's chunks runs exactly once, one body call each,
// however many helpers take part.
func TestTaskGroupSpawnRunsAll(t *testing.T) {
	e := NewExecutor(4)
	defer e.Stop()
	var calls, covered atomic.Int64
	ParallelFor(e, 0, 1000, 1, func(lo, hi int) {
		calls.Add(1)
		covered.Add(int64(hi - lo))
	})
	if calls.Load() != 1000 || covered.Load() != 1000 {
		t.Fatalf("calls = %d, covered = %d, want 1000 and 1000", calls.Load(), covered.Load())
	}
}

// Chunks may start nested calls of their own, whichever goroutine runs
// them: the outer call returns only once every inner chunk has run.
func TestTaskGroupNestedSpawn(t *testing.T) {
	e := NewExecutor(2)
	defer e.Stop()
	var count atomic.Int64
	ParallelFor(e, 0, 10, 1, func(int, int) {
		ParallelFor(e, 0, 10, 1, func(int, int) { count.Add(1) })
	})
	if count.Load() != 100 {
		t.Fatalf("count = %d, want 100", count.Load())
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

// The sizes cover one run, uneven run bounds, and an odd and an even
// number of merge rounds (the result lands in the scratch buffer or in
// place).
func TestParallelSortSorts(t *testing.T) {
	e := NewExecutor(3)
	defer e.Stop()
	src := rand.New(rand.NewSource(7))
	for _, n := range []int{sortGrain, sortGrain + 1, 3*sortGrain - 5, 50000} {
		data := make([]int, n)
		for i := range data {
			data[i] = src.Intn(1000)
		}
		want := append([]int(nil), data...)
		sort.Ints(want)
		ParallelSort(e, data, func(a, b int) bool { return a < b })
		for i := range data {
			if data[i] != want[i] {
				t.Fatalf("n=%d: mismatch at %d: %d vs %d", n, i, data[i], want[i])
			}
		}
	}
}

func TestParallelSortStable(t *testing.T) {
	type kv struct{ k, pos int }
	e := NewExecutor(4)
	defer e.Stop()
	src := rand.New(rand.NewSource(3))
	data := make([]kv, 30000)
	for i := range data {
		data[i] = kv{k: src.Intn(8), pos: i}
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

// TestTaskCountersAdvance pins what TaskSteals counts: chunks a helper
// ran. Chunk 0 is the caller's and waits until chunk 1 has run, so
// chunk 1 runs on the loop's one helper.
func TestTaskCountersAdvance(t *testing.T) {
	e := NewExecutor(2)
	defer e.Stop()
	ran := make(chan struct{})
	ParallelFor(e, 0, 2, 1, func(lo, hi int) {
		if lo == 1 {
			close(ran)
		} else {
			waitOrFail(t, ran, "chunk 1")
		}
	})
	if got := e.TaskSteals(); got != 1 {
		t.Fatalf("TaskSteals = %d, want 1", got)
	}
}

// TestTaskWaitParksUntilLastFinish drives a caller down its park path:
// chunk 1 runs on the helper, blocked until released, so once the
// caller has run chunk 0 it must park — inside a blocking section — and
// return only after chunk 1 has finished.
func TestTaskWaitParksUntilLastFinish(t *testing.T) {
	e := NewExecutor(2)
	defer e.Stop()
	started, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	joined := make(chan bool, 1)
	go func() {
		ParallelFor(e, 0, 2, 1, func(lo, hi int) {
			if lo == 0 {
				select {
				case <-started:
				case <-time.After(10 * time.Second):
					t.Error("chunk 1 never started")
				}
				return
			}
			close(started)
			<-release
			finished.Store(true)
		})
		joined <- finished.Load()
	}()
	blocked := func() int {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.blocked
	}
	for deadline := time.Now().Add(10 * time.Second); blocked() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the caller never parked")
		}
	}
	select {
	case <-joined:
		t.Fatal("the call returned while its last chunk still ran")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	select {
	case ok := <-joined:
		if !ok {
			t.Fatal("the call returned before its last chunk finished")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the caller still parked after the last chunk finished")
	}
	if b := blocked(); b != 0 {
		t.Errorf("blocked = %d after the call, want 0", b)
	}
}
