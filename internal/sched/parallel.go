package sched

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Parallel skeletons in the spirit of Intel Threading Building Blocks.
// They are the substrate standing in for C++/TBB in the paper's
// language comparison — data parallelism over shared memory with no
// safety guarantees, the performance ceiling the safe models are
// measured against — and, because their helper tasks ride the
// executor's injector like any other Ready, data-parallel kernels and
// message-passing handlers share one worker pool.
//
// Every skeleton is one self-scheduled loop (forEach): the caller and
// up to the pool's size of helper tasks claim chunk indices from one
// atomic counter until none is left. A claimed chunk always runs on a
// goroutine that is running, so the caller waits only on work already
// in progress — never on a helper still queued behind it — and a call
// cannot deadlock: not on a pool of one, not inside a handler Step, not
// nested inside another skeleton's chunk, not on a stopped executor
// (whose dropped helpers leave the caller to run every chunk itself).
// A caller that must wait for chunks other goroutines are running
// parks with blocking compensation (BlockingBegin/End), like any other
// blocking client code.
//
// A panicking chunk does not stop the loop: every other chunk still
// runs, and the caller re-panics with the first recovered value once
// all have finished.

// loopPanic boxes a panic value recovered from a chunk, so a nil
// interface panic survives the trip through an atomic pointer.
type loopPanic struct{ v any }

// loop is one forEach call. It is the Runnable of every helper task, so
// a helper is just a Task token pointing at it; a helper that starts
// after every chunk is claimed returns at once.
type loop struct {
	e      *Executor
	n      int
	body   func(i int)
	next   atomic.Int64 // next chunk index to claim
	left   atomic.Int64 // chunks not yet finished
	panicV atomic.Pointer[loopPanic]

	mu   sync.Mutex
	done sync.Cond // over mu: the caller, parked; signalled when left reaches 0
}

// forEach runs body(i) for every i in [0, n), on the caller and on
// min(n-1, pool size) helper tasks, and returns once every call has
// finished. The caller always runs chunk 0.
func forEach(e *Executor, n int, body func(i int)) {
	if n <= 0 {
		return
	}
	l := &loop{e: e, n: n, body: body}
	l.done.L = &l.mu
	l.left.Store(int64(n))
	l.next.Store(1) // chunk 0 is the caller's
	if h := min(n-1, e.target); h > 0 {
		helpers := make([]Task, h)
		for i := range helpers {
			helpers[i].r = l
			e.Ready(&helpers[i])
		}
	}
	for i := 0; i < n; i = l.claim() {
		l.run(i)
	}
	if l.left.Load() > 0 {
		l.mu.Lock()
		if l.left.Load() > 0 {
			e.BlockingBegin(nil)
			for l.left.Load() > 0 {
				l.done.Wait()
			}
			e.BlockingEnd(nil)
		}
		l.mu.Unlock()
	}
	if p := l.panicV.Load(); p != nil {
		panic(p.v)
	}
}

// Step is a helper task: it runs chunks until none is left to claim,
// counting each as a task steal before it runs, so a call's count is
// complete when the call returns.
func (l *loop) Step(*Worker) {
	for i := l.claim(); i < l.n; i = l.claim() {
		l.e.taskSteals.Add(1)
		l.run(i)
	}
}

// claim takes the next chunk index; n or more means none is left.
func (l *loop) claim() int {
	return int(l.next.Add(1) - 1)
}

// run executes chunk i, recording its panic, if any, and retiring it;
// the chunk that retires the last one wakes the caller.
func (l *loop) run(i int) {
	defer func() {
		if r := recover(); r != nil {
			l.panicV.CompareAndSwap(nil, &loopPanic{v: r})
		}
		if l.left.Add(-1) == 0 {
			l.mu.Lock()
			l.done.Broadcast()
			l.mu.Unlock()
		}
	}()
	l.body(i)
}

// ParallelFor executes body over [lo, hi) in chunks of grain elements
// (the last may be shorter), each chunk one body call.
func ParallelFor(e *Executor, lo, hi, grain int, body func(lo, hi int)) {
	grain = max(grain, 1)
	forEach(e, chunks(hi-lo, grain), func(i int) {
		a := lo + i*grain
		body(a, min(a+grain, hi))
	})
}

// chunks is how many grain-sized pieces cover n elements.
func chunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	return (n + grain - 1) / grain
}

// ParallelReduce folds leaf results over [lo, hi), split into chunks as
// by ParallelFor. Each chunk's result has its own slot, and the slots
// are combined left to right, so combine need only be associative and
// deterministic leaves give deterministic results.
func ParallelReduce[T any](e *Executor, lo, hi, grain int, leaf func(lo, hi int) T, combine func(a, b T) T) T {
	grain = max(grain, 1)
	slots := make([]T, chunks(hi-lo, grain))
	forEach(e, len(slots), func(i int) {
		a := lo + i*grain
		slots[i] = leaf(a, min(a+grain, hi))
	})
	var acc T
	for i, s := range slots {
		if i == 0 {
			acc = s
		} else {
			acc = combine(acc, s)
		}
	}
	return acc
}

// sortGrain is the run length below which ParallelSort sorts with the
// standard library alone.
const sortGrain = 2048

// ParallelSort sorts data by less with a bottom-up merge sort: k
// balanced runs (k the smallest power of two with k·sortGrain ≥
// len(data)) are sorted in parallel, then log₂k rounds of parallel
// pairwise merges alternate between data and one scratch buffer. The
// sort is stable — runs sort stably and merges take from the left run
// on ties — as winnow's deterministic order needs.
func ParallelSort[T any](e *Executor, data []T, less func(a, b T) bool) {
	n := len(data)
	k := 1
	for k*sortGrain < n {
		k *= 2
	}
	bound := func(i int) int { return i * n / k } // run i is data[bound(i):bound(i+1)]
	forEach(e, k, func(i int) {
		run := data[bound(i):bound(i+1)]
		sort.SliceStable(run, func(a, b int) bool { return less(run[a], run[b]) })
	})
	if k == 1 {
		return
	}
	src, dst := data, make([]T, n)
	for width := 1; width < k; width *= 2 {
		forEach(e, k/(2*width), func(m int) {
			lo, mid, hi := bound(2*m*width), bound((2*m+1)*width), bound((2*m+2)*width)
			merge(dst[lo:hi], src[lo:mid], src[mid:hi], less)
		})
		src, dst = dst, src
	}
	if &src[0] != &data[0] {
		copy(data, src)
	}
}

// merge merges the sorted runs a and b into out, taking from a on ties.
func merge[T any](out, a, b []T, less func(a, b T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}
