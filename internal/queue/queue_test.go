package queue

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

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

// The producer's fields start at least a cache line after the
// consumer's published position, whatever T and wherever the queue sits
// in its owner (a core Session embeds it): the padding and the stub node
// between them keep each side's writes off the other's line.
func TestSPSCFieldSplit(t *testing.T) {
	check := func(name string, pos, tail uintptr) {
		if tail-pos < 64 {
			t.Errorf("SPSC[%s]: tail is %d bytes after pos, want at least 64", name, tail-pos)
		}
	}
	var b SPSC[byte]
	check("byte", unsafe.Offsetof(b.pos), unsafe.Offsetof(b.tail))
	var i SPSC[int]
	check("int", unsafe.Offsetof(i.pos), unsafe.Offsetof(i.tail))
	var s SPSC[[5]int]
	check("[5]int", unsafe.Offsetof(s.pos), unsafe.Offsetof(s.tail))
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
