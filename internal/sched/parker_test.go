package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParkerUnparkBeforePark(t *testing.T) {
	p := NewParker()
	p.Unpark()
	done := make(chan struct{})
	go func() {
		p.Park() // must not block
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Park blocked despite prior Unpark")
	}
}

func TestParkerWakesParked(t *testing.T) {
	p := NewParker()
	done := make(chan struct{})
	go func() {
		p.Park()
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	p.Unpark()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Unpark did not wake parked goroutine")
	}
}

func TestParkerCoalescesNotifications(t *testing.T) {
	p := NewParker()
	p.Unpark()
	p.Unpark()
	p.Unpark()
	p.Park() // consumes the single coalesced notification

	blocked := make(chan struct{})
	go func() {
		p.Park()
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("second Park returned without a new Unpark")
	case <-time.After(50 * time.Millisecond):
	}
	p.Unpark()
	<-blocked
}

func TestParkerManyRounds(t *testing.T) {
	p := NewParker()
	var turns atomic.Int64
	const rounds = 10000
	done := make(chan struct{})
	go func() {
		for i := 0; i < rounds; i++ {
			p.Park()
			turns.Add(1)
		}
		close(done)
	}()
	unparked := make(chan struct{})
	go func() {
		defer close(unparked)
		for i := 0; i < rounds; i++ {
			p.Unpark()
			// Give the consumer a chance to actually park sometimes.
			if i%64 == 0 {
				time.Sleep(time.Microsecond)
			}
			for int(turns.Load()) <= i {
				SpinWait(i)
			}
		}
	}()
	select {
	case <-done:
		<-unparked
	case <-time.After(10 * time.Second):
		t.Fatalf("lost wakeup: only %d/%d rounds completed", turns.Load(), rounds)
	}
}

func TestParkerConcurrentUnparkers(t *testing.T) {
	// Unpark must be safe from many goroutines at once; each round all
	// unparkers fire and the parker must consume at least one wakeup.
	p := NewParker()
	const rounds = 500
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				p.Unpark()
				if r%32 == 0 {
					time.Sleep(time.Microsecond)
				}
			}
		}()
	}
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		for !stop.Load() {
			p.Park()
		}
		close(done)
	}()
	wg.Wait()
	stop.Store(true)
	p.Unpark()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parker lost the final wakeup under concurrent Unpark")
	}
}
