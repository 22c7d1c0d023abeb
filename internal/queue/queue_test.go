package queue

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
	"weak"

	"scoopqs/internal/sched"
)

// dequeue is an MPSC consumer's poll loop, which the queue does not
// provide: TryDequeue until an item arrives, or ok=false once the queue
// has quiesced (closed and drained, with no producer mid-enqueue).
func dequeue[T any](q *MPSC[T]) (v T, ok bool) {
	for i := 0; ; i++ {
		if v, ok = q.TryDequeue(); ok || q.Quiesced() {
			return v, ok
		}
		sched.SpinWait(i)
	}
}

// The producer's published count starts at least a cache line after the
// consumer's, whatever T and wherever the queue sits in its owner (a
// core Session embeds it): the padding between them keeps each side's
// writes off the other's line.
func TestSPSCFieldSplit(t *testing.T) {
	check := func(name string, cpub, pub uintptr) {
		if pub-cpub < 64 {
			t.Errorf("SPSC[%s]: pub is %d bytes after cpub, want at least 64", name, pub-cpub)
		}
	}
	var b SPSC[byte]
	check("byte", unsafe.Offsetof(b.cpub), unsafe.Offsetof(b.pub))
	var i SPSC[int]
	check("int", unsafe.Offsetof(i.cpub), unsafe.Offsetof(i.pub))
	var s SPSC[[5]int]
	check("[5]int", unsafe.Offsetof(s.cpub), unsafe.Offsetof(s.pub))
}

func TestSPSCOrder(t *testing.T) {
	q := NewSPSC[int](0)
	const n = 100000
	go func() {
		for i := 0; i < n; i++ {
			q.Enqueue(i)
		}
		q.Close()
	}()
	for i := 0; i < n; i++ {
		v, ok := q.Dequeue()
		if !ok {
			t.Fatalf("queue closed early at %d", i)
		}
		if v != i {
			t.Fatalf("got %d, want %d (FIFO violated)", v, i)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("Dequeue after drain+close returned ok")
	}
}

// TestSPSCEnqueuedCountsProducer pins Enqueued: the producer's count,
// read by a third goroutine while the two sides run, never behind what
// the consumer has taken and never past what the producer has logged,
// and exact once both have finished.
func TestSPSCEnqueuedCountsProducer(t *testing.T) {
	q := NewSPSC[int](0)
	const n = 10000
	var taken atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for taken.Load() < n {
			if lo, got := taken.Load(), q.Enqueued(); got < lo || got > n {
				t.Errorf("Enqueued = %d with %d taken, want within [%d, %d]", got, lo, lo, n)
				return
			}
			runtime.Gosched()
		}
	}()
	go func() {
		for i := range n {
			q.Enqueue(i)
		}
	}()
	for range n {
		for {
			if _, ok := q.TryDequeue(); ok {
				break
			}
			runtime.Gosched()
		}
		taken.Add(1)
	}
	<-done
	if got := q.Enqueued(); got != n {
		t.Errorf("Enqueued = %d after %d items, want %d", got, n, n)
	}
}

func TestSPSCTryDequeueEmpty(t *testing.T) {
	q := NewSPSC[string](0)
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("TryDequeue on empty queue returned ok")
	}
	q.Enqueue("a")
	v, ok := q.TryDequeue()
	if !ok || v != "a" {
		t.Fatalf("got %q,%v want a,true", v, ok)
	}
}

func TestSPSCCloseReleasesBlockedConsumer(t *testing.T) {
	q := NewSPSC[int](0)
	done := make(chan bool)
	go func() {
		_, ok := q.Dequeue()
		done <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	q.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Dequeue on closed empty queue returned ok=true")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not release blocked consumer")
	}
}

func TestSPSCDrainsBeforeClosedReport(t *testing.T) {
	q := NewSPSC[int](0)
	q.Enqueue(1)
	q.Enqueue(2)
	q.Close()
	for want := 1; want <= 2; want++ {
		v, ok := q.Dequeue()
		if !ok || v != want {
			t.Fatalf("got %d,%v want %d,true", v, ok, want)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("expected closed after drain")
	}
}

func TestSPSCEnqueueAfterClosePanics(t *testing.T) {
	q := NewSPSC[int](0)
	q.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	q.Enqueue(1)
}

// Property: for any sequence of values, SPSC yields exactly that
// sequence.
func TestSPSCQuickFIFO(t *testing.T) {
	f := func(vals []int64) bool {
		q := NewSPSC[int64](4)
		go func() {
			for _, v := range vals {
				q.Enqueue(v)
			}
			q.Close()
		}()
		for _, want := range vals {
			got, ok := q.Dequeue()
			if !ok || got != want {
				return false
			}
		}
		_, ok := q.Dequeue()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMPSCSingleProducerOrder(t *testing.T) {
	q := NewMPSC[int](0)
	const n = 100000
	go func() {
		for i := 0; i < n; i++ {
			q.Enqueue(i)
		}
		q.Close()
	}()
	for i := 0; i < n; i++ {
		v, ok := dequeue(q)
		if !ok || v != i {
			t.Fatalf("got %d,%v want %d,true", v, ok, i)
		}
	}
}

type tagged struct {
	producer int
	seq      int
}

// Per-producer FIFO with no loss and no duplication: the guarantee the
// queue-of-queues relies on for the separate rule.
func TestMPSCManyProducers(t *testing.T) {
	q := NewMPSC[tagged](0)
	const producers = 8
	const perProducer = 20000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Enqueue(tagged{p, i})
			}
		}(p)
	}
	go func() {
		wg.Wait()
		q.Close()
	}()
	next := make([]int, producers)
	total := 0
	for {
		v, ok := dequeue(q)
		if !ok {
			break
		}
		if v.seq != next[v.producer] {
			t.Fatalf("producer %d: got seq %d, want %d", v.producer, v.seq, next[v.producer])
		}
		next[v.producer]++
		total++
	}
	if total != producers*perProducer {
		t.Fatalf("received %d items, want %d", total, producers*perProducer)
	}
}

func TestMPSCTryDequeue(t *testing.T) {
	q := NewMPSC[int](0)
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("TryDequeue on empty returned ok")
	}
	q.Enqueue(7)
	if v, ok := q.TryDequeue(); !ok || v != 7 {
		t.Fatalf("got %d,%v want 7,true", v, ok)
	}
	if !q.Empty() {
		t.Fatal("queue should be empty")
	}
}

func TestMPSCTryEnqueueClosed(t *testing.T) {
	q := NewMPSC[int](0)
	if !q.TryEnqueue(1) {
		t.Fatal("TryEnqueue on open queue failed")
	}
	if q.Closed() {
		t.Fatal("Closed() true before Close")
	}
	q.Close()
	if !q.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if q.TryEnqueue(2) {
		t.Fatal("TryEnqueue on closed queue succeeded")
	}
	// The pre-close item must still drain.
	if v, ok := q.TryDequeue(); !ok || v != 1 {
		t.Fatalf("drain after close = (%d,%v), want (1,true)", v, ok)
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("rejected item was enqueued anyway")
	}
}

func TestMPSCEnqueueClosedStillPanics(t *testing.T) {
	q := NewMPSC[int](0)
	q.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Enqueue on closed MPSC did not panic")
		}
	}()
	q.Enqueue(1)
}

func TestMPSCStressInterleaved(t *testing.T) {
	// Producers enqueue while the consumer drains concurrently; checks
	// total counts only (ordering across producers is unspecified).
	q := NewMPSC[int](1)
	const producers = 16
	const perProducer = 5000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Enqueue(1)
			}
		}()
	}
	go func() {
		wg.Wait()
		q.Close()
	}()
	sum := 0
	for {
		v, ok := dequeue(q)
		if !ok {
			break
		}
		sum += v
	}
	if sum != producers*perProducer {
		t.Fatalf("sum=%d want %d", sum, producers*perProducer)
	}
}

func BenchmarkSPSCPingPong(b *testing.B) {
	q := NewSPSC[int](0)
	back := NewSPSC[int](0)
	go func() {
		for {
			v, ok := q.Dequeue()
			if !ok {
				back.Close()
				return
			}
			back.Enqueue(v)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(i)
		back.Dequeue()
	}
	b.StopTimer()
	q.Close()
}

func BenchmarkMPSCEnqueue(b *testing.B) {
	q := NewMPSC[int](0)
	go func() {
		for {
			if _, ok := dequeue(q); !ok {
				return
			}
		}
	}()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q.Enqueue(1)
		}
	})
	b.StopTimer()
	q.Close()
}

// TestMPSCRecyclesNodes pins the reservation hot path's allocation
// profile: a single producer paced by the consumer must reuse nodes
// (the Vyukov producer-side harvest) instead of allocating one per
// enqueue.
func TestMPSCRecyclesNodes(t *testing.T) {
	q := NewMPSC[int](1)
	// Warm up: create the first real node and publish a position.
	q.Enqueue(0)
	q.TryDequeue()
	allocs := testing.AllocsPerRun(1000, func() {
		q.Enqueue(1)
		if _, ok := q.TryDequeue(); !ok {
			t.Fatal("dequeue failed")
		}
	})
	if allocs > 0.1 {
		t.Fatalf("paced enqueue/dequeue allocates %.2f allocs/op, want ~0", allocs)
	}
}

// Recycling must not break correctness when producers race the
// harvest lock: hammer the queue from many producers and check every
// item arrives exactly once in per-producer order.
func TestMPSCRecycleManyProducers(t *testing.T) {
	const producers, per = 8, 5000
	q := NewMPSC[[2]int](1)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Enqueue([2]int{p, i})
			}
		}()
	}
	go func() {
		wg.Wait()
		q.Close()
	}()
	last := make([]int, producers)
	for i := range last {
		last[i] = -1
	}
	total := 0
	for {
		v, ok := dequeue(q)
		if !ok {
			break
		}
		if v[1] != last[v[0]]+1 {
			t.Fatalf("producer %d: item %d after %d (per-producer FIFO broken)", v[0], v[1], last[v[0]])
		}
		last[v[0]] = v[1]
		total++
	}
	if total != producers*per {
		t.Fatalf("consumed %d items, want %d", total, producers*per)
	}
}

// A warm queue reuses its ring in place: bursts that fit the ring,
// drained between bursts, allocate nothing — on the first 4-slot ring and
// on a full-size ring after a large burst.
func TestSPSCSteadyStreamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned for the non-race build")
	}
	for _, c := range []struct{ warm, burst int }{
		{1, firstRing},
		{4 * maxRing, maxRing}, // grows the chain to full-size rings
	} {
		q := NewSPSC[int](0)
		for i := range c.warm {
			q.Enqueue(i)
		}
		for range c.warm {
			q.TryDequeue()
		}
		allocs := testing.AllocsPerRun(100, func() {
			for i := range c.burst {
				q.Enqueue(i)
			}
			for i := range c.burst {
				if v, ok := q.TryDequeue(); !ok || v != i {
					t.Fatalf("got %d,%v want %d,true", v, ok, i)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("bursts of %d after %d items: %.2f allocs per burst, want 0", c.burst, c.warm, allocs)
		}
	}
}

// Random bursts of 1–1 000 items against a consumer that lags at random,
// on one goroutine so the schedule replays: the chain grows past three
// doublings, rings wrap in place and come back through the spare, and
// every item arrives once, in order.
func TestSPSCRingGrowthOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	q := NewSPSC[int](0)
	sizes := map[int]bool{}
	wrapped, reused := false, false
	seen := map[*ring[int]]uint64{} // ring → the base it was last seen with
	next, want := 0, 0
	for round := 0; round < 2000; round++ {
		for range 1 + rng.IntN(1000) {
			q.Enqueue(next)
			next++
			r := q.pr
			sizes[len(r.slots)] = true
			if q.pub.Load()-r.base > uint64(len(r.slots)) {
				wrapped = true
			}
			if base, ok := seen[r]; ok && base != r.base {
				reused = true
			}
			seen[r] = r.base
		}
		// The consumer takes a random share of the backlog, all of it now
		// and then.
		take := rng.IntN(next - want + 1)
		if rng.IntN(8) == 0 {
			take = next - want
		}
		for range take {
			v, ok := q.TryDequeue()
			if !ok || v != want {
				t.Fatalf("round %d: got %d,%v want %d,true", round, v, ok, want)
			}
			want++
		}
	}
	for want < next {
		if v, ok := q.TryDequeue(); !ok || v != want {
			t.Fatalf("drain: got %d,%v want %d,true", v, ok, want)
		}
		want++
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("TryDequeue on a drained queue returned ok")
	}
	for _, size := range []int{8, 16, 32} {
		if !sizes[size] {
			t.Errorf("the chain never grew a %d-slot ring (sizes %v)", size, sizes)
		}
	}
	if !wrapped {
		t.Error("no ring was reused in place (the producer never wrapped)")
	}
	if !reused {
		t.Error("no ring came back through the spare")
	}
}

// The same across two goroutines, the consumer lagging at random.
func TestSPSCRingGrowthOrderConcurrent(t *testing.T) {
	const n = 200000
	q := NewSPSC[int](0)
	go func() {
		rng := rand.New(rand.NewPCG(3, 4))
		for i := 0; i < n; {
			for range 1 + rng.IntN(1000) {
				if i < n {
					q.Enqueue(i)
					i++
				}
			}
			runtime.Gosched()
		}
		q.Close()
	}()
	rng := rand.New(rand.NewPCG(5, 6))
	for want := 0; ; want++ {
		if rng.IntN(500) == 0 {
			time.Sleep(10 * time.Microsecond)
		}
		v, ok := q.Dequeue()
		if !ok {
			if want != n {
				t.Fatalf("closed after %d items, want %d", want, n)
			}
			return
		}
		if v != want {
			t.Fatalf("got %d, want %d (FIFO violated)", v, want)
		}
	}
}

// A dequeued item is the consumer's alone: the queue's slot no longer
// refers to it, so once the consumer drops it a GC collects it — on the
// first ring and on the rings grown and passed behind it.
func TestSPSCReleasesDequeuedItems(t *testing.T) {
	q := NewSPSC[*[64]byte](0)
	const n = 3 * maxRing
	ws := make([]weak.Pointer[[64]byte], n)
	for i := range ws {
		p := new([64]byte)
		ws[i] = weak.Make(p)
		q.Enqueue(p)
	}
	for range n {
		if _, ok := q.TryDequeue(); !ok {
			t.Fatal("dequeue failed")
		}
	}
	runtime.GC()
	for i, w := range ws {
		if w.Value() != nil {
			t.Fatalf("item %d of %d is still reachable after its dequeue", i, n)
		}
	}
	runtime.KeepAlive(q)
}

// After a drained burst of 1 000 000 items the queue reaches only its
// current ring and at most one spare: passed rings are unlinked.
func TestSPSCDropsPassedRings(t *testing.T) {
	q := NewSPSC[int](0)
	const n = 1000000
	for i := range n {
		q.Enqueue(i)
	}
	for range n {
		if _, ok := q.TryDequeue(); !ok {
			t.Fatal("dequeue failed")
		}
	}
	reached := map[*ring[int]]bool{}
	for r := q.cr; r != nil; r = r.next.Load() {
		reached[r] = true
	}
	for _, r := range []*ring[int]{q.pr, q.first.Load(), q.spare.Load()} {
		if r != nil {
			reached[r] = true
		}
	}
	if len(reached) > 2 {
		t.Errorf("a drained queue reaches %d rings, want its current ring and at most one spare", len(reached))
	}
}

// A backlog the consumer has not reached — reservations running ahead
// of a handler held by another block — costs one allocation per block of
// nodes, not one per node.
func TestMPSCBacklogAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned for the non-race build")
	}
	q := NewMPSC[int](0)
	const n = 10000
	allocs := testing.AllocsPerRun(1, func() {
		for i := range n {
			q.Enqueue(i)
		}
	})
	if per := allocs / n; per > 0.02 {
		t.Errorf("a backlog of %d enqueues = %.4f allocs per enqueue, want at most 0.02", n, per)
	}
}

// callSized is the size of a core private queue's item (core's call):
// a kind, a func and a stamp, 24 bytes.
type callSized struct {
	kind uint8
	fn   func()
	at   int64
}

// BenchmarkSPSCStream streams 65 536 call-sized items from a producer
// goroutine to the consumer through a fresh queue, per op; ns/item is the
// cross-goroutine cost of one item (the ladder's queue.spsc_xthread_ns
// loop, outside the benchmark binary).
func BenchmarkSPSCStream(b *testing.B) {
	const items = 65536
	b.ReportAllocs()
	for b.Loop() {
		q := NewSPSC[callSized](0)
		go func() {
			for i := range items {
				q.Enqueue(callSized{at: int64(i)})
			}
			q.Close()
		}()
		for {
			if _, ok := q.Dequeue(); !ok {
				break
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*items), "ns/item")
}

// BenchmarkMPSCRunAhead enqueues 4 096 items on a fresh queue-of-queues
// the consumer has not reached, then drains them, per op: the shape of
// reservations running ahead of a handler held by another block.
func BenchmarkMPSCRunAhead(b *testing.B) {
	const items = 4096
	b.ReportAllocs()
	for b.Loop() {
		q := NewMPSC[int](0)
		for i := range items {
			q.Enqueue(i)
		}
		for range items {
			q.TryDequeue()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*items), "ns/item")
}
