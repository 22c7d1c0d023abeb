package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// Tests of the wait-condition protocol: guards the handler evaluates
// itself (callGuard: single-handler blocks under QoQ) and starts
// directly, guards the client evaluates (callWait and the generation
// CompareAndSwap: multi-handler blocks, lock-based configurations), the
// handler-owned waiter list both are filed on, and which ENDs fire it.

// forEachGuardConfig runs body under all five configurations, each on
// the default pool and on pools of 1 and 4 workers.
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
// benchmarks' ratios rest on. GuardRetries counts the attempts of a wait
// condition that ended without effect. A guard its handler evaluates
// (QoQ, perGroup 1) makes one reservation however long it waits, ended
// by callGuard if its first evaluation failed — re-evaluations in place
// are not attempts — and by END once it ran. Any other wait makes a
// reservation per attempt, the client's first and each the handlers
// made, ended by callWait when the guard failed and by END when it ran.
// whens is the number of SeparateWhen calls completed, perGroup the
// handlers each reserved.
func checkGuardCounters(t *testing.T, rt *Runtime, whens, perGroup int64) {
	t.Helper()
	st := rt.Stats()
	wantRes, wantEnds := st.GuardRetries+whens, st.Reservations+perGroup*st.MultiResGroups
	if rt.cfg.QoQ && perGroup == 1 {
		wantRes, wantEnds = whens, st.Reservations+st.MultiResGroups+st.GuardRetries
	}
	if st.MultiResGroups != wantRes {
		t.Errorf("MultiResGroups = %d, want %d (GuardRetries %d, completed waits %d)", st.MultiResGroups, wantRes, st.GuardRetries, whens)
	}
	if st.EndsProcessed != wantEnds {
		t.Errorf("EndsProcessed = %d, want %d (Reservations %d, MultiResGroups %d, GuardRetries %d)",
			st.EndsProcessed, wantEnds, st.Reservations, st.MultiResGroups, st.GuardRetries)
	}
}

// (a) A failed guard wakes nobody: K waiters on a guard that stays false
// fail once each and then sit still, however many of them there are.
// With the client-driven retry loop every abandoned attempt poked every
// other waiter, so the count grew without bound. Then one write enables
// them all, and their bodies are empty: each started waiter's END, which
// follows no request at all, must still fire the list, or the chain
// breaks and the rest hang.
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
// a has fired the record, the client has reserved its block again and
// the block has run: b must drop the stale entry, not wake the client a
// second time. The client re-reserves itself in every configuration, so
// both of its cached private queues are reused.
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
		if st := rt.Stats(); st.GuardRetries != 1 || st.MultiResGroups != 2 || st.SessionsReused != 2 {
			t.Fatalf("GuardRetries = %d, MultiResGroups = %d, SessionsReused = %d; want 1, 2 and 2",
				st.GuardRetries, st.MultiResGroups, st.SessionsReused)
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
// true, which left the handler wedged on a block that never ENDs. Where
// the handler evaluates the guard (QoQ, one handler) the panic happens on
// the handler: it poisons the session and reaches the client as
// *HandlerError, like a packaged query's; elsewhere it is the client's
// own and propagates raw.
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
			r := <-out
			if he, ok := r.(*HandlerError); ok != cfg.QoQ || ok && he.Value != "guard blew up" || !ok && r != "guard blew up" {
				t.Errorf("recovered %v; want the guard's own panic, as *HandlerError: %v", r, cfg.QoQ)
			}
		})
		usable()

		// A guard that logs a panicking call on its session and fails.
		// Evaluated by the handler, the call runs in place — the handler
		// must not become a second producer of the client's private
		// queue — and poisons the session, so the client is woken at once
		// to surface the *HandlerError. Evaluated by the client, the call
		// is logged, the wait gives the block up, and the client
		// re-reserves on a fresh session once the state changes.
		out = when(func(evals int, s *Session) bool {
			if evals == 1 {
				s.Call(func() { panic("poison") })
			}
			return evals > 1
		})
		if !cfg.QoQ {
			settle(t, "the poisoning guard failing", func() bool { return rt.Stats().GuardRetries == 1 })
		}
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

// fileWaiters starts one goroutine per wait, in order, each running wait(i)
// — one SeparateWhen whose guard is false for now — and starts the next
// only once the previous one's failed attempt has ended on its
// endsEach handlers, so the waiters are filed in index order. The
// returned WaitGroup is done when every wait has returned.
func fileWaiters(t *testing.T, rt *Runtime, n int, endsEach int64, wait func(i int)) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	base := rt.Stats().EndsProcessed
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wait(i)
		}()
		settle(t, fmt.Sprintf("waiter %d being filed", i), func() bool {
			return rt.Stats().EndsProcessed == base+int64(i+1)*endsEach
		})
	}
	return &wg
}

// (b) A waiter enabled only by another started waiter's body. Waiter i
// may run when step == i and running is what makes step i+1; they are
// filed last-first, so every start has to come from a fresh walk of the
// list at the END of the waiter started before — there is no other
// traffic on the handler once the one outside write has been made.
func TestWaiterEnabledByStartedWaiter(t *testing.T) {
	forEachGuardConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		h := rt.NewHandler("stairs")
		step := -1 // handler-owned

		const n = 5
		wg := fileWaiters(t, rt, n, 1, func(i int) {
			want := n - 1 - i
			rt.NewClient().SeparateWhen([]*Handler{h},
				func(ss []*Session) bool { return Query(ss[0], func() bool { return step == want }) },
				func(ss []*Session) { ss[0].Call(func() { step++ }) })
		})
		rt.NewClient().Separate(h, func(s *Session) { s.Call(func() { step = 0 }) })
		within(t, "the stairs", wg.Wait)
		within(t, "Shutdown", rt.Shutdown)
		if step != n {
			t.Fatalf("step = %d, want %d", step, n)
		}
		checkGuardCounters(t, rt, n, 1)
	})
}

// (c) Waiters whose guard holds run in filing order. One write enables
// all K; the handler starts them one by one (QoQ: directly), each after
// the previous one's END.
// Lock-based configurations wake them all to race for the handler lock,
// which promises no order: there every body must still run, once.
func TestWaitersRunInFilingOrder(t *testing.T) {
	forEachGuardConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		h := rt.NewHandler("door")
		open := false // handler-owned
		var order []int

		const k = 6
		wg := fileWaiters(t, rt, k, 1, func(i int) {
			// The guard has the shape static sync-coalescing emits.
			rt.NewClient().SeparateWhen([]*Handler{h},
				func(ss []*Session) bool { ss[0].SyncNow(); return LocalQuery(ss[0], func() bool { return open }) },
				func(ss []*Session) { ss[0].Call(func() { order = append(order, i) }) })
		})
		rt.NewClient().Separate(h, func(s *Session) { s.Call(func() { open = true }) })
		within(t, "the waiters", wg.Wait)
		within(t, "Shutdown", rt.Shutdown)
		if len(order) != k {
			t.Fatalf("%d bodies ran, want %d: %v", len(order), k, order)
		}
		for i, id := range order {
			if cfg.QoQ && id != i {
				t.Fatalf("waiters ran in order %v, want filing order", order)
			}
		}
		checkGuardCounters(t, rt, k, 1)
	})
}

// (d) Starting waiters directly lets them pass blocks already queued in
// the queue-of-queues, but only so many: a block reserved while K waiters
// are filed runs after at most those K, even when every one of them comes
// straight back for more — their next reservations queue up behind it.
func TestWaitersBypassIsBounded(t *testing.T) {
	forEachGuardConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		h := rt.NewHandler("h")
		open, ran := false, 0 // handler-owned

		const k, rounds = 4, 25
		wg := fileWaiters(t, rt, k, 1, func(int) {
			c := rt.NewClient()
			for r := 0; r < rounds; r++ {
				c.SeparateWhen([]*Handler{h},
					func(ss []*Session) bool { return Query(ss[0], func() bool { return open }) },
					func(ss []*Session) { ss[0].Call(func() { ran++ }) })
			}
		})

		// The running block: it opens the door and keeps the handler
		// until the ordinary block has queued up behind it.
		gate := make(chan struct{})
		rt.NewClient().Separate(h, func(s *Session) {
			s.Call(func() {
				open = true
				c := h.AsClient()
				c.blockBegin()
				<-gate
				c.blockEnd()
			})
		})
		seen := make(chan int, 1)
		go rt.NewClient().Separate(h, func(s *Session) { seen <- Query(s, func() int { return ran }) })
		settle(t, "the ordinary block queueing up", func() bool { return rt.Stats().Reservations == 2 })
		close(gate)
		within(t, "the ordinary block", func() {
			if n := <-seen; n > k {
				t.Errorf("%d waiter blocks ran before a block queued when %d were filed", n, k)
			}
		})
		within(t, "the waiters", wg.Wait)
		within(t, "Shutdown", rt.Shutdown)
		if ran != k*rounds {
			t.Fatalf("ran = %d, want %d", ran, k*rounds)
		}
	})
}

// (e) A single-handler and a two-handler waiter filed on the same
// handler: under QoQ the first is evaluated and started by a itself, the
// second woken for its client to reserve again and evaluate; both are
// served by the one write, and b drops its stale entry for the second at
// its next END without waking anybody.
func TestMixedWaitersOnOneHandler(t *testing.T) {
	forEachGuardConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		a := rt.NewHandler("a")
		b := rt.NewHandler("b")
		ready := false // owned by a
		ran := 0       // owned by b

		guard := func(ss []*Session) bool { return Query(ss[0], func() bool { return ready }) } // ss[0] is a's
		wg := fileWaiters(t, rt, 1, 1, func(int) {
			rt.NewClient().SeparateWhen([]*Handler{a}, guard, func([]*Session) {})
		})
		wg2 := fileWaiters(t, rt, 1, 2, func(int) {
			rt.NewClient().SeparateWhen([]*Handler{a, b}, guard, func(ss []*Session) { ss[1].Call(func() { ran++ }) })
		})
		rt.NewClient().Separate(a, func(s *Session) { s.Call(func() { ready = true }) })
		within(t, "the single-handler waiter", wg.Wait)
		within(t, "the two-handler waiter", wg2.Wait)

		// b's next END walks its list; the block after reads it with b
		// synced and still, which orders the read.
		filed := -1
		c := rt.NewClient()
		c.Separate(b, func(*Session) {})
		c.Separate(b, func(s *Session) { s.SyncNow(); filed = len(b.waiters) })
		within(t, "Shutdown", rt.Shutdown)
		if filed != 0 || ran != 1 {
			t.Fatalf("b files %d waiters, the two-handler body's call ran %d times; want 0 and 1", filed, ran)
		}
		// Attempts: the two-handler wait makes two, the single-handler
		// one too unless a evaluates it in place.
		wantRes := int64(4)
		if cfg.QoQ {
			wantRes = 3
		}
		if st := rt.Stats(); st.GuardRetries != 2 || st.MultiResGroups != wantRes {
			t.Fatalf("GuardRetries = %d, MultiResGroups = %d; want 2 and %d", st.GuardRetries, st.MultiResGroups, wantRes)
		}
	})
}

// (g) What the counters count. A guard needs N evaluations: the waiter's
// first and one per write. Where its handler evaluates it that is one
// reservation and one attempt that ended without effect — re-evaluations
// in place are not attempts; elsewhere each failure is an attempt and
// each retry a reservation. The guard asks through a future, which the
// handler must resolve in place rather than log on the client's queue.
func TestGuardEvaluationsAreNotAttempts(t *testing.T) {
	forEachGuardConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		h := rt.NewHandler("h")
		x := 0 // handler-owned

		const n = 5
		evals := 0 // the guard's; ordered by the wait's own hand-offs
		wg := fileWaiters(t, rt, 1, 1, func(int) {
			rt.NewClient().SeparateWhen([]*Handler{h},
				func(ss []*Session) bool {
					evals++
					v, _ := ss[0].CallFuture(func() any { return x >= n-1 }).Get()
					return v.(bool)
				},
				func([]*Session) {})
		})
		c := rt.NewClient()
		for i := 1; i < n; i++ {
			c.Separate(h, func(s *Session) { s.Call(func() { x++ }) })
			if i < n-1 {
				// One evaluation per write: wait for this one's before
				// the next write can be seen by it.
				settle(t, "the re-evaluation", func() bool {
					return rt.Stats().FuturesCreated == int64(i+1)
				})
			}
		}
		within(t, "the waiter", wg.Wait)
		within(t, "Shutdown", rt.Shutdown)
		wantRetries, wantRes := int64(n-1), int64(n)
		if cfg.QoQ {
			wantRetries, wantRes = 1, 1
		}
		if st := rt.Stats(); evals != n || st.GuardRetries != wantRetries || st.MultiResGroups != wantRes {
			t.Fatalf("evaluations = %d, GuardRetries = %d, MultiResGroups = %d; want %d, %d and %d",
				evals, st.GuardRetries, st.MultiResGroups, n, wantRetries, wantRes)
		}
		checkGuardCounters(t, rt, 1, 1)
	})
}

// Shutdown releases filed waiters: a client parked on a guard that never
// came true — filed with one handler, with two, or parked unreserved in
// lock-based mode — used to stay parked forever after Shutdown returned.
// The retiring handlers wake it and its SeparateWhen panics ErrShutdown,
// as a reservation after Shutdown does.
func TestShutdownReleasesFiledWaiters(t *testing.T) {
	forEachGuardConfig(t, func(t *testing.T, cfg Config) {
		before := runtime.NumGoroutine()
		rt := New(cfg)
		a := rt.NewHandler("a")
		b := rt.NewHandler("b")
		never := func(ss []*Session) bool { return Query(ss[0], func() bool { return false }) }

		out := make(chan any, 3)
		parked := func(hs ...*Handler) func(int) {
			return func(int) {
				defer func() { out <- recover() }()
				rt.NewClient().SeparateWhen(hs, never, func([]*Session) { t.Error("body ran") })
			}
		}
		fileWaiters(t, rt, 1, 1, parked(a))
		fileWaiters(t, rt, 1, 1, parked(b))
		fileWaiters(t, rt, 1, 2, parked(b, a))
		within(t, "Shutdown", rt.Shutdown)
		within(t, "the released waiters", func() {
			for i := 0; i < 3; i++ {
				if r := <-out; r != ErrShutdown {
					t.Errorf("a released waiter recovered %v, want ErrShutdown", r)
				}
			}
		})
		settle(t, "the goroutine count", func() bool { return runtime.NumGoroutine() <= before })
	})
}

// TestGuardShapeAllocs pins the runtime's share of a guarded block: none.
// With the program's guard, body, query and call closures made once,
// a single-handler SeparateWhen whose guard holds allocates nothing at
// all, and a turn-shaped ping-pong — two clients on one handler, each
// waiting for its parity — allocates next to nothing: whatever a
// guarded block costs the guard workload is the closures the program
// makes per block.
func TestGuardShapeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool Puts at random; counts are pinned for the non-race build")
	}
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rt := New(ConfigAll.WithWorkers(workers))
			defer rt.Shutdown()
			h := rt.NewHandler("h")
			hs := []*Handler{h}
			x := 0 // owned by h
			holds := func() bool { return x >= 0 }
			guard := func(ss []*Session) bool { return Query(ss[0], holds) }
			inc := func() { x++ }
			body := func(ss []*Session) { ss[0].Call(inc) }
			c := rt.NewClient()
			block := func() { c.SeparateWhen(hs, guard, body) }
			for i := 0; i < 1000; i++ {
				block()
			}
			if allocs := testing.AllocsPerRun(2000, block); allocs != 0 {
				t.Errorf("a guarded block whose guard holds = %.4f allocs, want 0", allocs)
			}

			if allocs := turnAllocsPerBlock(rt, 5000); allocs > 0.01 {
				t.Errorf("a turn block = %.4f allocs, want <= 0.01", allocs)
			}
		})
	}
}

// turnAllocsPerBlock runs the turn shape on a fresh handler of rt — two
// clients passing a counter back and forth, each blocking on a guard
// until it is its parity's turn — warms it, and returns the process's
// allocations per block over the next 2×rounds blocks.
func turnAllocsPerBlock(rt *Runtime, rounds int) float64 {
	h := rt.NewHandler("turn")
	hs := []*Handler{h}
	turn := 0 // owned by h
	start := [2]chan int{make(chan int), make(chan int)}
	done := make(chan struct{})
	for parity := range 2 {
		go func() {
			c := rt.NewClient()
			mine := func() bool { return turn%2 == parity }
			guard := func(ss []*Session) bool { return Query(ss[0], mine) }
			pass := func() { turn++ }
			body := func(ss []*Session) { ss[0].Call(pass) }
			for n := range start[parity] {
				for range n {
					c.SeparateWhen(hs, guard, body)
				}
				done <- struct{}{}
			}
		}()
	}
	play := func(n int) {
		start[0] <- n
		start[1] <- n
		<-done
		<-done
	}
	play(1000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	play(rounds)
	runtime.ReadMemStats(&after)
	close(start[0])
	close(start[1])
	return float64(after.Mallocs-before.Mallocs) / float64(2*rounds)
}

// Session and call are pinned to their allocation size classes. call is
// copied through every private-queue node. Session is allocated in the
// same breath as its SPSC queue, and its size class sets the slot parity
// of those neighbours: when it once shrank from the 96-byte class to the
// 80-byte one, the benchmark's handoff fanout went bimodal per process
// (74–82 ns/op in some runs, 92–139 in others). Without its parker and
// reply slot, which moved to the Client, it sits in the 64-byte class,
// measured inside every benchmark bound (HISTORY.md). Moving
// either is a layout change to measure, not a free win.
func TestHotStructSizes(t *testing.T) {
	if got := unsafe.Sizeof(call{}); got != 40 {
		t.Errorf("sizeof(call) = %d, want 40", got)
	}
	if got := unsafe.Sizeof(Session{}); got <= 48 || got > 64 {
		t.Errorf("sizeof(Session) = %d, want the 64-byte size class (49..64)", got)
	}
}

// TestFreshSessionAllocs pins what a client's first reservation on a
// handler allocates: the session, its cache entry, and its SPSC queue
// with the queue's stub node. The client waits on a parker of its own
// and wakes the handler itself (Session.log), so the session brings no
// parker and no wake hook. The END that closes the block is not
// counted: it allocates the queue's first node.
func TestFreshSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool Puts at random; counts are pinned for the non-race build")
	}
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rt := New(ConfigAll.WithWorkers(workers))
			defer rt.Shutdown()
			h := rt.NewHandler("h")
			const runs = 200
			var mallocs uint64
			for range runs {
				c := rt.NewClient()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				s, err := c.TryReserve(h)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				mallocs += after.Mallocs - before.Mallocs
				c.End(s)
				for h.state.Load() != hIdle {
					runtime.Gosched()
				}
			}
			if got := mallocs / runs; got != 4 {
				t.Errorf("a client's first reservation on a handler = %d allocs (%d over %d), want 4", got, mallocs, runs)
			}
		})
	}
}

// TestNewHandlerAllocs pins what a handler costs before it has work: the
// Handler, its pool task, and its queue-of-queues with the queue's stub
// node. Its wakers reach it through Session.log, Handler.enqueue and
// Shutdown, so the queue carries no parker and no wake hook.
func TestNewHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool Puts at random; counts are pinned for the non-race build")
	}
	rt := New(ConfigAll)
	defer rt.Shutdown()
	if got := testing.AllocsPerRun(1000, func() { rt.NewHandler("h") }); got != 4 {
		t.Errorf("NewHandler = %v allocs, want 4", got)
	}
}

// A handler without a pool has a goroutine only while it has work: drain
// finds it without a client, Step takes it to hIdle and returns, and its
// goroutine ends. So in a ring every hop's wakeFrom makes the hIdle→hReady
// CAS of a handler that is idle or on its way there and starts its next
// goroutine with go, and each confirming query parks the passing handler's
// client side in turn. A wake-up lost on either edge stops the token.
// Shutdown then finds all 64 handlers idle (they have had nothing to do
// since the token stopped) and must retire them.
// CI runs it under -race at GOMAXPROCS 1, 2 and 4.
func TestIdleRingNoLostWakeup(t *testing.T) {
	const ring, hops = 64, 20000
	for _, cfg := range Configs() {
		t.Run(cfg.Name(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			rt := New(cfg)
			hs := make([]*Handler, ring)
			for i := range hs {
				hs[i] = rt.NewHandler("ring")
			}
			passToken(t, rt, hs, hops)
			time.Sleep(time.Millisecond) // the last handlers go idle
			within(t, "Shutdown of idle handlers", rt.Shutdown)
			settle(t, "the handler goroutines exiting", func() bool { return runtime.NumGoroutine() <= before })
		})
	}
}

// passToken sends a token hops times round the ring hs, each hop a block
// of the passing handler on the next: it sets the next handler's slot,
// confirms it with a query and passes the token on. It returns once the
// token has stopped at the handler hops%len(hs).
func passToken(t *testing.T, rt *Runtime, hs []*Handler, hops int) {
	t.Helper()
	ring := len(hs)
	tokens := make([]int, ring) // tokens[i] owned by hs[i]
	done := make(chan int, 1)
	var pass func(i, v int)
	pass = func(i, v int) {
		if v == 0 {
			done <- i
			return
		}
		next := (i + 1) % ring
		hs[i].AsClient().Separate(hs[next], func(s *Session) {
			s.Call(func() { tokens[next] = v - 1 })
			if got := Query(s, func() int { return tokens[next] }); got != v-1 {
				t.Errorf("hop %d: handler %d holds %d", hops-v, next, got)
			}
			s.Call(func() { pass(next, v-1) })
		})
	}
	rt.NewClient().Separate(hs[0], func(s *Session) {
		s.Call(func() { pass(0, hops) })
	})
	within(t, "the ring", func() {
		if finisher := <-done; finisher != hops%ring {
			t.Errorf("finisher = %d, want %d", finisher, hops%ring)
		}
	})
}

// An idle handler holds no goroutine: creating 10 000 adds none to the
// pool's own workers, and once a ring of 64 of them stops passing its
// token, before Shutdown, what is left over is at most the pool's spare
// workers (the executor retires a compensation worker only past twice
// its size) — a bound independent of the number of handlers.
func TestIdleHandlersHoldNoGoroutines(t *testing.T) {
	const handlers, ring, hops = 10000, 64, 20000
	rt := New(ConfigAll)
	before := runtime.NumGoroutine()
	hs := make([]*Handler, handlers)
	for i := range hs {
		hs[i] = rt.NewHandler("idle")
	}
	if added := runtime.NumGoroutine() - before; added > 0 {
		t.Errorf("%d idle handlers added %d goroutines, want 0", handlers, added)
	}
	passToken(t, rt, hs[:ring], hops)
	spares := runtime.GOMAXPROCS(0) // the pool's size at New
	settle(t, "the ring's goroutines ending before Shutdown", func() bool { return runtime.NumGoroutine() <= before+spares })
	within(t, "Shutdown", rt.Shutdown)
}

// Each block on an idle handler is one activation, and the pool runs it
// from the handler's own scheduling token: a wake allocates nothing.
func TestIdleWakeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool Puts at random; counts are pinned for the non-race build")
	}
	rt := New(ConfigAll)
	defer rt.Shutdown()
	h := rt.NewHandler("h")
	c := rt.NewClient()
	x := 0 // owned by h
	inc := func() { x++ }
	body := func(s *Session) {
		s.Call(inc)
		s.SyncNow()
	}
	runs := 0
	run := func() {
		runs++
		c.Separate(h, body)
		for h.state.Load() != hIdle {
			runtime.Gosched()
		}
	}
	for range 100 {
		run()
	}
	st0 := rt.Stats()
	runs = 0
	if allocs := testing.AllocsPerRun(2000, run); allocs != 0 {
		t.Errorf("a block on an idle handler = %.4f allocs, want 0", allocs)
	}
	// A handler that goes idle mid-block, its client preempted past the
	// engaged wait, is woken once more by the client's next request.
	st := rt.Stats()
	if got, want := st.Schedules-st0.Schedules, int64(runs)+st.HandlerParks-st0.HandlerParks; got != want {
		t.Errorf("Schedules rose by %d over %d blocks (%d mid-block parks), want %d", got, runs, st.HandlerParks-st0.HandlerParks, want)
	}
}
