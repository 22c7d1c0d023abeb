package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// Tests of the handler-driven wait-condition protocol: callWait, the
// handler-owned waiter list, which ENDs fire it, and the lock-based
// fallback.

// forEachGuardConfig runs body under all five configurations, each
// dedicated and pooled at 1 and 4 workers.
func forEachGuardConfig(t *testing.T, body func(t *testing.T, cfg Config)) {
	t.Helper()
	for _, base := range Configs() {
		for _, workers := range []int{0, 1, 4} {
			cfg := base.WithWorkers(workers)
			t.Run(cfg.Name(), func(t *testing.T) { body(t, cfg) })
		}
	}
}

// within fails the test when f has not returned after a generous
// timeout: a lost wake-up or a wedged handler shows up as a hang.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%s did not finish", what)
	}
}

// settle polls until cond holds.
func settle(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("%s never held", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkGuardCounters asserts, after Shutdown, the bookkeeping the guard
// benchmarks' ratios rest on: every attempt of a wait condition — the
// client's first and each the handlers made — is one multi-reservation
// that ends exactly once, by callWait when its guard failed and by END
// when it ran. whens is the number of SeparateWhen calls completed,
// perGroup the handlers each reserved.
func checkGuardCounters(t *testing.T, rt *Runtime, whens, perGroup int64) {
	t.Helper()
	st := rt.Stats()
	if st.MultiResGroups != st.GuardRetries+whens {
		t.Errorf("MultiResGroups = %d, want GuardRetries %d + completed waits %d", st.MultiResGroups, st.GuardRetries, whens)
	}
	if want := st.Reservations + perGroup*st.MultiResGroups; st.EndsProcessed != want {
		t.Errorf("EndsProcessed = %d, want %d (Reservations %d + %d x MultiResGroups %d)",
			st.EndsProcessed, want, st.Reservations, perGroup, st.MultiResGroups)
	}
}

// (a) A failed guard wakes nobody: K waiters on a guard that stays false
// fail once each and then sit still, however many of them there are.
// With the client-driven retry loop every abandoned attempt poked every
// other waiter, so the count grew without bound.
func TestFailedGuardsAreQuiet(t *testing.T) {
	forEachGuardConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		h := rt.NewHandler("box")
		open := false // handler-owned

		const k = 6
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := rt.NewClient()
				c.SeparateWhen([]*Handler{h},
					func(ss []*Session) bool { return Query(ss[0], func() bool { return open }) },
					func([]*Session) {})
			}()
		}
		settle(t, "every waiter failing once", func() bool { return rt.Stats().EndsProcessed == k })
		time.Sleep(30 * time.Millisecond)
		if st := rt.Stats(); st.GuardRetries != k || st.MultiResGroups != k {
			t.Fatalf("idle waiters kept retrying: GuardRetries = %d, MultiResGroups = %d, want %d each",
				st.GuardRetries, st.MultiResGroups, k)
		}

		rt.NewClient().Separate(h, func(s *Session) { s.Call(func() { open = true }) })
		within(t, "waiters after the state change", wg.Wait)
		within(t, "Shutdown", rt.Shutdown)
		checkGuardCounters(t, rt, k, 1)
	})
}

// (b) No lost wake-up. N clients pass a turn around: client i may only
// run when turn%N == i, and running is the only thing that changes
// turn. Every state change therefore has exactly one END to wake its
// successor with and no other traffic to hide a miss behind; a lost
// wake-up hangs the ring.
func TestGuardRingNoLostWakeup(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			forEachGuardConfig(t, func(t *testing.T, cfg Config) {
				rt := New(cfg)
				h := rt.NewHandler("turn")
				turn := 0 // handler-owned

				const n, m = 4, 40
				var wg sync.WaitGroup
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						c := rt.NewClient()
						hs := []*Handler{h}
						for k := 0; k < m; k++ {
							c.SeparateWhen(hs,
								func(ss []*Session) bool { return Query(ss[0], func() bool { return turn%n == i }) },
								func(ss []*Session) { ss[0].Call(func() { turn++ }) })
						}
					}(i)
				}
				within(t, "the ring", wg.Wait)
				within(t, "Shutdown", rt.Shutdown)
				if turn != n*m {
					t.Fatalf("turn = %d, want %d", turn, n*m)
				}
				checkGuardCounters(t, rt, n*m, 1)
			})
		})
	}
}

// (c) A two-handler wait is filed on both handlers and fired by one.
// Here b is kept busy, so it processes the waiter's callWait only after
// a has fired the record, re-reserved the block and the block has run:
// b must drop the stale entry, not reserve the client a second time.
func TestSeparateWhenStaleWaitIsDropped(t *testing.T) {
	forEachGuardConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		a := rt.NewHandler("a")
		b := rt.NewHandler("b")
		ready := false // owned by a
		ran := 0       // owned by b

		gate := make(chan struct{})
		rt.NewClient().Separate(b, func(s *Session) {
			s.Call(func() {
				// Bracketed like any blocking operation of handler code,
				// or a one-worker pool could not run a meanwhile.
				c := b.AsClient()
				c.blockBegin()
				<-gate
				c.blockEnd()
			})
		})

		bodies := 0
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := rt.NewClient()
			c.SeparateWhen([]*Handler{b, a},
				func(ss []*Session) bool { return Query(ss[0], func() bool { return ready }) }, // ss[0] is a's
				func(ss []*Session) {
					bodies++
					ss[1].Call(func() { ran++ })
				})
		}()
		// a ends the failed attempt and files the waiter; b has not seen it.
		settle(t, "a filing the waiter", func() bool { return rt.Stats().EndsProcessed == 1 })
		rt.NewClient().Separate(a, func(s *Session) { s.Call(func() { ready = true }) })
		within(t, "the waiter, fired by a alone", wg.Wait)

		close(gate)
		within(t, "Shutdown", rt.Shutdown)
		if bodies != 1 || ran != 1 {
			t.Fatalf("body ran %d times, its call on b %d times; want 1 and 1", bodies, ran)
		}
		if st := rt.Stats(); st.GuardRetries != 1 || st.MultiResGroups != 2 {
			t.Fatalf("GuardRetries = %d, MultiResGroups = %d; want 1 and 2 (b reserved the client again?)",
				st.GuardRetries, st.MultiResGroups)
		}
		if len(b.waiters) != 0 {
			t.Fatalf("b still files %d waiters", len(b.waiters))
		}
		// Blocks ended: the gate's, the writer's, and two attempts on two handlers each.
		if st := rt.Stats(); st.EndsProcessed != 2+2*2 {
			t.Fatalf("EndsProcessed = %d, want 6", st.EndsProcessed)
		}
	})
}

// (d) A handler-hosted client may wait on a guard: on a one-worker pool
// the wait is a blocking operation like a query, so the executor must
// compensate for the occupied worker or the guarded handler never runs.
func TestHostedClientWaitsOnGuard(t *testing.T) {
	forEachGuardConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		host := rt.NewHandler("host")
		box := rt.NewHandler("box")
		ready := false // owned by box
		got := make(chan bool, 1)

		rt.NewClient().Separate(host, func(s *Session) {
			s.Call(func() {
				host.AsClient().SeparateWhen([]*Handler{box},
					func(ss []*Session) bool { return Query(ss[0], func() bool { return ready }) },
					func(ss []*Session) { got <- Query(ss[0], func() bool { return ready }) })
			})
		})
		settle(t, "the hosted client failing its guard", func() bool { return rt.Stats().GuardRetries == 1 })
		rt.NewClient().Separate(box, func(s *Session) { s.Call(func() { ready = true }) })
		within(t, "the hosted client's body", func() {
			if !<-got {
				t.Error("body ran with the guard false")
			}
		})
		within(t, "Shutdown", rt.Shutdown)
	})
}

// A guard that panics must end its block like a panicking body does.
// SeparateWhen used to arm the release only once the guard had returned
// true, which left the handler wedged on a block that never ENDs.
func TestPanickingGuardReleasesTheBlock(t *testing.T) {
	forEachGuardConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		h := rt.NewHandler("h")
		x := 0 // handler-owned

		// when runs one SeparateWhen on its own client and hands back
		// what it panicked with, nil if it returned.
		when := func(guard func(evals int, s *Session) bool) chan any {
			out := make(chan any, 1)
			go func() {
				defer func() { out <- recover() }()
				evals := 0
				rt.NewClient().SeparateWhen([]*Handler{h},
					func(ss []*Session) bool { evals++; return guard(evals, ss[0]) },
					func([]*Session) {})
			}()
			return out
		}
		usable := func() {
			t.Helper()
			within(t, "another client's block on the same handler", func() {
				rt.NewClient().Separate(h, func(s *Session) { s.SyncNow() })
			})
		}

		// A guard that panics outright.
		out := when(func(int, *Session) bool { panic("guard blew up") })
		within(t, "the panicking guard", func() {
			if r := <-out; r != "guard blew up" {
				t.Errorf("recovered %v, want the guard's own panic", r)
			}
		})
		usable()

		// A guard that poisons its session and fails. Under QoQ the
		// client wakes up still holding that session and must surface the
		// *HandlerError; lock-based mode re-reserves on a fresh one.
		out = when(func(evals int, s *Session) bool {
			if evals == 1 {
				s.Call(func() { panic("poison") })
			}
			return evals > 1
		})
		settle(t, "the poisoning guard failing", func() bool { return rt.Stats().GuardRetries == 1 })
		rt.NewClient().Separate(h, func(s *Session) { s.Call(func() { x++ }) })
		within(t, "the poisoned wait", func() {
			if _, poisoned := (<-out).(*HandlerError); poisoned != cfg.QoQ {
				t.Errorf("wake-up raised *HandlerError: %v, want %v", poisoned, cfg.QoQ)
			}
		})
		usable()
		within(t, "Shutdown", rt.Shutdown)
	})
}

// Session and call are pinned to their allocation size classes. call is
// copied through every private-queue node. Session sits in the 96-byte
// class next to its SPSC queue, allocated in the same breath: when it
// shrank to the 80-byte class the slot parity of those neighbours
// changed and the benchmark's handoff fanout went bimodal per process
// (74–82 ns/op in some runs, 92–139 in others). Shrinking either is a
// layout change to measure, not a free win.
func TestHotStructSizes(t *testing.T) {
	if got := unsafe.Sizeof(call{}); got != 40 {
		t.Errorf("sizeof(call) = %d, want 40", got)
	}
	if got := unsafe.Sizeof(Session{}); got <= 80 || got > 96 {
		t.Errorf("sizeof(Session) = %d, want the 96-byte size class (81..96)", got)
	}
}
