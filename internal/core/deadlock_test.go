package core

import (
	"sync"
	"testing"
	"time"
)

// Construct the §2.5 query cycle and check the detector reports it.
func TestDetectDeadlockFindsQueryCycle(t *testing.T) {
	// Two workers: the calls meet at a WaitGroup, a wait the pool cannot
	// see, so both must be running at once (a pool of one would hold its
	// only worker in the first call's Wait).
	rt := New(ConfigQoQ.WithWorkers(2)) // wedged by design; no Shutdown
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
