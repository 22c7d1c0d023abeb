package queue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// An MPSC consumer parks after a handful of busy polls (sched.Idle), so
// when the next item is only enqueued once the consumer has taken the
// last, every hand-off finds it parked or between its last empty poll
// and its Park — the window an Unpark must not fall into. K producers
// race to make each hand-off so the enqueue, and its Unpark, come from
// changing goroutines. A lost wake-up leaves everyone waiting.
func TestMPSCParkWakeStorm(t *testing.T) {
	const producers, handoffs = 4, 100000
	q := NewMPSC[int64](0)
	var produced, consumed atomic.Int64 // equal: the consumer has drained
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := consumed.Load()
				if n == handoffs {
					return
				}
				if produced.CompareAndSwap(n, n+1) {
					q.Enqueue(n)
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < handoffs; i++ {
			if v, ok := q.Dequeue(); !ok || v != i {
				t.Errorf("hand-off %d: Dequeue = %d, %v", i, v, ok)
			}
			consumed.Store(i + 1)
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("lost wake-up: %d enqueued, %d dequeued of %d", produced.Load(), consumed.Load(), handoffs)
	}
}
