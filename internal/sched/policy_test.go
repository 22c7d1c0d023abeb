package sched_test

import (
	"runtime"
	"testing"
	"time"

	"scoopqs/internal/actor"
	"scoopqs/internal/core"
	"scoopqs/internal/sched"
)

// The wait policy is pinned where it is applied: how often each of the
// runtime's two waits for work goes through the Go scheduler before it
// blocks.

// yieldsFromNow returns a reading of the yields made since the call.
func yieldsFromNow() func() int64 {
	base := sched.Yields.Load()
	return func() int64 { return sched.Yields.Load() - base }
}

// eventually polls cond until it holds or d has passed.
func eventually(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// An actor's wait for mail never yields: nobody owes it a message, so
// it parks after the busy polls (sched.Idle).
func TestIdleDequeueParksWithoutYielding(t *testing.T) {
	yields := yieldsFromNow()
	got := make(chan any)
	a := actor.Spawn(func(c *actor.Ctx) { got <- c.Receive() })
	// The window is what an engaged wait needs to start yielding; an idle
	// one stays at zero however long it is.
	if eventually(20*time.Millisecond, func() bool { return yields() > 0 }) {
		time.Sleep(20 * time.Millisecond) // let it finish, for the message
		t.Fatalf("Receive on an empty mailbox yielded %d times before parking, want 0", yields())
	}
	a.Send(7)
	if v := <-got; v != 7 {
		t.Fatalf("Receive = %v, want 7", v)
	}
	a.Join()
	if n := yields(); n != 0 {
		t.Fatalf("%d yields over a parked hand-off, want 0", n)
	}
}

// A handler left without a request in the middle of a block spends the
// engaged budget, and no more, before it parks mid-session — whoever
// drives it. This is core's only engaged wait (spinForWork).
func TestHandlerParksAfterEngagedWait(t *testing.T) {
	for _, workers := range []int{0, 1} {
		rt := core.New(core.ConfigQoQ.WithWorkers(workers))
		h := rt.NewHandler("h")
		entered, gate := make(chan struct{}), make(chan struct{})
		rt.NewClient().Separate(h, func(s *core.Session) {
			s.Call(func() { close(entered); <-gate })
			// Inside the call h polls nothing; what it yielded waiting for
			// the call to be logged does not count.
			<-entered
			yields := yieldsFromNow()
			parks := rt.Stats().HandlerParks
			close(gate)
			if !eventually(10*time.Second, func() bool { return rt.Stats().HandlerParks > parks }) {
				t.Errorf("workers=%d: handler did not park mid-block", workers)
			}
			if n := yields(); n != sched.EngagedYields {
				t.Errorf("workers=%d: spinForWork yielded %d times before parking, want %d", workers, n, sched.EngagedYields)
			}
		})
		rt.Shutdown()
	}
}

// The same wait while another client keeps reserving the handler: each
// reservation's wake marks the running handler dirty and forces a
// re-pass over the pinned session, and the re-passes must not spend the
// budget again. The first reservation lands before the wait starts, so
// there is always one. On a pool of one worker a handler that spun on
// would hold the only worker for as long as the reservations kept coming.
func TestHandlerParksAfterEngagedWaitWhileReserved(t *testing.T) {
	const maxReservations = 1 << 16 // bounds the queue-of-queues if the handler never parks
	rt := core.New(core.ConfigQoQ.WithWorkers(1))
	h := rt.NewHandler("h")
	entered, gate := make(chan struct{}), make(chan struct{})
	first, reserved := make(chan struct{}), make(chan struct{})
	rt.NewClient().Separate(h, func(s *core.Session) {
		s.Call(func() { close(entered); <-gate })
		<-entered
		yields := yieldsFromNow()
		parks := rt.Stats().HandlerParks
		go func() {
			defer close(reserved)
			c := rt.NewClient()
			empty := func(*core.Session) {}
			c.Separate(h, empty)
			close(first)
			for i := 1; i < maxReservations && rt.Stats().HandlerParks == parks; i++ {
				c.Separate(h, empty)
			}
		}()
		<-first
		close(gate)
		if !eventually(10*time.Second, func() bool { return rt.Stats().HandlerParks > parks }) {
			t.Error("handler did not park mid-block")
		}
		<-reserved
		if n := yields(); n != sched.EngagedYields {
			t.Errorf("spinForWork yielded %d times before parking, want %d", n, sched.EngagedYields)
		}
	})
	rt.Shutdown()
}
