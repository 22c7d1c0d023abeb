package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"scoopqs/internal/future"
)

// Construct the §2.5 query cycle and check the detector reports it.
func TestDetectDeadlockFindsQueryCycle(t *testing.T) {
	rt := New(ConfigQoQ) // wedged by design; no Shutdown
	a := rt.NewHandler("a")
	b := rt.NewHandler("b")

	// Each call waits for the other to have started before it queries,
	// or a's could finish before b's begins and no cycle would form.
	var started sync.WaitGroup
	started.Add(2)
	c := rt.NewClient()
	c.Separate(a, func(s *Session) {
		s.Call(func() {
			started.Done()
			started.Wait()
			a.AsClient().Separate(b, func(sb *Session) {
				QueryRemote(sb, func() int { return 1 })
			})
		})
	})
	c.Separate(b, func(s *Session) {
		s.Call(func() {
			started.Done()
			started.Wait()
			b.AsClient().Separate(a, func(sa *Session) {
				QueryRemote(sa, func() int { return 1 })
			})
		})
	})

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		// Confirm twice: blocked queries have no spurious wakeups, so
		// a cycle seen in two snapshots is genuinely stuck.
		first := rt.DetectDeadlock()
		if len(first) > 0 {
			second := rt.DetectDeadlock()
			if len(second) > 0 {
				got := FormatDeadlocks(second)
				if got == "no deadlock" {
					t.Fatal("inconsistent formatting")
				}
				// The cycle must involve both handlers.
				if !containsAll(second[0].Handlers, "a", "b") {
					t.Fatalf("cycle %v does not contain both handlers", second[0].Handlers)
				}
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("detector never reported the query cycle")
}

func containsAll(hs []string, want ...string) bool {
	set := map[string]bool{}
	for _, h := range hs {
		set[h] = true
	}
	for _, w := range want {
		if !set[w] {
			return false
		}
	}
	return true
}

// A healthy runtime reports no deadlock, including while queries are
// in flight.
func TestDetectDeadlockQuietOnHealthyRuntime(t *testing.T) {
	rt := New(ConfigAll)
	defer rt.Shutdown()
	a := rt.NewHandler("a")
	b := rt.NewHandler("b")

	// One-directional delegation: a waits on b, b waits on nobody.
	done := make(chan struct{})
	c := rt.NewClient()
	c.Separate(a, func(s *Session) {
		s.Call(func() {
			a.AsClient().Separate(b, func(sb *Session) {
				QueryRemote(sb, func() int {
					time.Sleep(30 * time.Millisecond)
					return 1
				})
			})
			close(done)
		})
	})
	for {
		select {
		case <-done:
			if cs := rt.DetectDeadlock(); len(cs) != 0 {
				t.Fatalf("false positive after completion: %s", FormatDeadlocks(cs))
			}
			return
		default:
			if cs := rt.DetectDeadlock(); len(cs) != 0 {
				t.Fatalf("false positive on a chain: %s", FormatDeadlocks(cs))
			}
		}
	}
}

func TestFormatDeadlocksEmpty(t *testing.T) {
	if got := FormatDeadlocks(nil); got != "no deadlock" {
		t.Fatalf("got %q", got)
	}
	one := []DeadlockCycle{{Handlers: []string{"x", "y"}}}
	if got := FormatDeadlocks(one); got != "deadlock: x -> y -> x" {
		t.Fatalf("got %q", got)
	}
}

// Await cycle: a parks its state machine on a future only b can
// resolve, while b parks on a future only a can resolve — no client
// waits on a handler anywhere, so the query-edge detector used to be
// blind to it. The detector must follow the await edges
// (handler -> origin of the awaited future) and report the cycle.
func TestDetectDeadlockFindsAwaitCycle(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rt := New(ConfigAll.WithWorkers(workers)) // wedged by design; no Shutdown
			a := rt.NewHandler("a")
			b := rt.NewHandler("b")

			// cross arms, on the executing handler, an await on a future logged
			// on the other handler's session, and returns the promise its
			// continuation would resolve — which it never can.
			var cross func(self, other *Handler) any
			cross = func(self, other *Handler) any {
				p := future.New()
				var inner *future.Future
				self.AsClient().Separate(other, func(s *Session) {
					inner = s.CallFuture(func() any {
						if other == b {
							return cross(b, a)
						}
						return nil // never reached: a is wedged by then
					})
				})
				self.Await(inner, func(v any, err error) {
					if err != nil {
						p.Fail(err)
						return
					}
					p.Complete(v)
				})
				return p
			}
			c := rt.NewClient()
			c.Separate(a, func(s *Session) {
				s.CallFuture(func() any { return cross(a, b) })
			})

			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				// Both handlers must be parked awaiting before a stable verdict.
				if rt.Stats().AwaitParks >= 2 {
					first := rt.DetectDeadlock()
					second := rt.DetectDeadlock()
					if len(first) > 0 && len(second) > 0 {
						if !containsAll(second[0].Handlers, "a", "b") {
							t.Fatalf("cycle %v does not contain both handlers", second[0].Handlers)
						}
						return
					}
				}
				time.Sleep(5 * time.Millisecond)
			}
			t.Fatalf("await cycle never detected (await-parks=%d): %s",
				rt.Stats().AwaitParks, FormatDeadlocks(rt.DetectDeadlock()))
		})
	}
}

// A three-handler await ring: each handler parks on the future of an
// asynchronous query logged on the next handler, so the wait-for graph
// is a ring of await edges, a -> b -> c -> a. The detector must chain
// the origin tags of all three awaited futures.
func TestDetectDeadlockFindsThreeHandlerAwaitCycle(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rt := New(ConfigAll.WithWorkers(workers)) // wedged by design; no Shutdown
			names := []string{"a", "b", "c"}
			hs := make([]*Handler, len(names))
			for i, n := range names {
				hs[i] = rt.NewHandler(n)
			}

			// cross logs a future query on the next handler in the ring and
			// awaits it. Handler c's query targets a, which is already parked
			// awaiting — so all three wedge.
			var cross func(i int) any
			cross = func(i int) any {
				self, nxt := hs[i], hs[(i+1)%len(hs)]
				p := future.New()
				var inner *future.Future
				self.AsClient().Separate(nxt, func(s *Session) {
					inner = s.CallFuture(func() any {
						if (i+1)%len(hs) != 0 {
							return cross(i + 1)
						}
						return nil // never reached: a is wedged by then
					})
				})
				self.Await(inner, func(v any, err error) {
					if err != nil {
						p.Fail(err)
						return
					}
					p.Complete(v)
				})
				return p
			}
			c := rt.NewClient()
			c.Separate(hs[0], func(s *Session) {
				s.CallFuture(func() any { return cross(0) })
			})

			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				// All three handlers must be parked awaiting for a stable verdict.
				if rt.Stats().AwaitParks >= 3 {
					first := rt.DetectDeadlock()
					second := rt.DetectDeadlock()
					if len(first) > 0 && len(second) > 0 {
						if !containsAll(second[0].Handlers, "a", "b", "c") {
							t.Fatalf("cycle %v does not contain all three handlers", second[0].Handlers)
						}
						return
					}
				}
				time.Sleep(5 * time.Millisecond)
			}
			t.Fatalf("three-handler await cycle never detected (await-parks=%d): %s",
				rt.Stats().AwaitParks, FormatDeadlocks(rt.DetectDeadlock()))
		})
	}
}

// A self-cycle: a handler that queries itself through a second session
// is also stuck (it can never drain its own private queue).
func TestDetectDeadlockSelfQuery(t *testing.T) {
	rt := New(ConfigQoQ) // wedged by design
	a := rt.NewHandler("self")
	c := rt.NewClient()
	c.Separate(a, func(s *Session) {
		s.Call(func() {
			a.AsClient().Separate(a, func(sa *Session) {
				QueryRemote(sa, func() int { return 1 })
			})
		})
	})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cs := rt.DetectDeadlock(); len(cs) > 0 {
			if len(cs[0].Handlers) != 1 || cs[0].Handlers[0] != "self" {
				t.Fatalf("unexpected cycle %v", cs[0].Handlers)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("self-query deadlock not detected")
}
