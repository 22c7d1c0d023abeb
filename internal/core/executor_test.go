package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"scoopqs/internal/sched"
)

// pooledAll is ConfigAll on a small pool, forcing real multiplexing in
// tests that create more handlers than workers.
func pooledAll(workers int) Config { return ConfigAll.WithWorkers(workers) }

// Shutdown must wait for handlers that are still draining a backlog of
// logged calls: every call of every completed block executes before
// Shutdown returns, in both execution modes.
func TestShutdownWaitsForMidSessionBacklog(t *testing.T) {
	for _, cfg := range []Config{ConfigAll, pooledAll(2)} {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			rt := New(cfg)
			const handlers = 8
			const calls = 500
			counts := make([]int, handlers) // counts[i] owned by handler i
			var wg sync.WaitGroup
			for i := 0; i < handlers; i++ {
				i := i
				h := rt.NewHandler("h")
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := rt.NewClient()
					c.Separate(h, func(s *Session) {
						for k := 0; k < calls; k++ {
							s.Call(func() { counts[i]++ })
						}
					})
					// Block ended: END is logged, but the handler may
					// still be far behind.
				}()
			}
			wg.Wait()
			rt.Shutdown()
			for i, n := range counts {
				if n != calls {
					t.Fatalf("handler %d executed %d/%d calls before Shutdown returned", i, n, calls)
				}
			}
		})
	}
}

// A wait-condition storm with far more guarded clients than pool
// workers: consumers outnumber workers, all spinning through reserve/
// guard/abandon cycles, yet every produced item is consumed.
func TestGuardStormWithFewWorkers(t *testing.T) {
	rt := New(pooledAll(2))
	defer rt.Shutdown()
	h := rt.NewHandler("box")
	var items []int // handler-owned

	const consumers = 24
	const total = 240
	var wg sync.WaitGroup
	got := make(chan int, total)
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := rt.NewClient()
			for n := 0; n < total/consumers; n++ {
				c.SeparateWhen([]*Handler{h},
					func(ss []*Session) bool {
						return Query(ss[0], func() bool { return len(items) > 0 })
					},
					func(ss []*Session) {
						got <- Query(ss[0], func() int {
							v := items[len(items)-1]
							items = items[:len(items)-1]
							return v
						})
					})
			}
		}()
	}
	prod := rt.NewClient()
	for i := 1; i <= total; i++ {
		i := i
		prod.Separate(h, func(s *Session) { s.Call(func() { items = append(items, i) }) })
	}
	wg.Wait()
	close(got)
	sum := 0
	for v := range got {
		sum += v
	}
	if want := total * (total + 1) / 2; sum != want {
		t.Fatalf("consumed sum = %d, want %d", sum, want)
	}
	if st := rt.Stats(); st.GuardRetries == 0 {
		t.Log("note: no guard retries occurred; storm was too tame to stress wait conditions")
	}
}

// A synchronous delegation chain much longer than the pool: handler i
// queries handler i+1 before answering. Every hop blocks one worker,
// so without compensation a pool of 2 would deadlock at depth 2.
func TestDelegationChainDeeperThanPool(t *testing.T) {
	const workers = 2
	const depth = 16
	rt := New(pooledAll(workers))
	defer rt.Shutdown()

	hs := make([]*Handler, depth)
	for i := range hs {
		hs[i] = rt.NewHandler("link")
	}
	// ask(i) runs on handler i and synchronously queries handler i+1.
	var ask func(i int) int
	ask = func(i int) int {
		if i == depth-1 {
			return 1
		}
		sum := 0
		hs[i].AsClient().Separate(hs[i+1], func(s *Session) {
			sum = QueryRemote(s, func() int { return ask(i + 1) }) + 1
		})
		return sum
	}

	c := rt.NewClient()
	done := make(chan int, 1)
	c.Separate(hs[0], func(s *Session) {
		s.Call(func() { done <- ask(0) })
	})
	select {
	case got := <-done:
		if got != depth {
			t.Fatalf("chain depth = %d, want %d", got, depth)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("delegation chain deadlocked the pool")
	}
	if st := rt.Stats(); st.WorkerSpawns < depth-workers {
		t.Errorf("WorkerSpawns = %d, want >= %d (one per blocked hop beyond the pool)",
			st.WorkerSpawns, depth-workers)
	}
}

// Regression for the Shutdown race: reserving after Shutdown must
// surface ErrShutdown, not the raw "queue: Enqueue on closed MPSC"
// panic the queue used to raise.
func TestReservationAfterShutdownClearPanic(t *testing.T) {
	for _, cfg := range []Config{ConfigNone, ConfigQoQ, pooledAll(2)} {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			rt := New(cfg)
			h := rt.NewHandler("h")
			rt.Shutdown()
			check := func(enter func(c *Client)) {
				defer func() {
					r := recover()
					err, ok := r.(error)
					if !ok || !errors.Is(err, ErrShutdown) {
						t.Fatalf("panic = %v, want ErrShutdown", r)
					}
				}()
				enter(rt.NewClient())
				t.Fatal("reservation after Shutdown succeeded")
			}
			check(func(c *Client) { c.Separate(h, func(*Session) {}) })
			check(func(c *Client) { c.SeparateMany([]*Handler{h}, func([]*Session) {}) })
		})
	}
}

// Concurrent Shutdown vs. reservations: clients hammering Separate
// while Shutdown runs must either complete normally or observe
// ErrShutdown — never the opaque queue panic, never a wedge.
func TestShutdownReservationRace(t *testing.T) {
	for _, cfg := range []Config{ConfigQoQ, pooledAll(2)} {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			for round := 0; round < 20; round++ {
				rt := New(cfg)
				h := rt.NewHandler("h")
				var wg sync.WaitGroup
				for i := 0; i < 4; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer func() {
							if r := recover(); r != nil {
								err, ok := r.(error)
								if !ok || !errors.Is(err, ErrShutdown) {
									t.Errorf("unexpected panic: %v", r)
								}
							}
						}()
						c := rt.NewClient()
						for {
							c.Separate(h, func(s *Session) { s.Call(func() {}) })
						}
					}()
				}
				time.Sleep(time.Millisecond)
				rt.Shutdown()
				wg.Wait()
			}
		})
	}
}

// A reservation a closing handler rejects must wake it: the handler may
// have seen that producer's in-flight mark at its last look, found its
// queue-of-queues not yet quiesced and gone idle, and only the rejected
// producer knows to make it look again. The clients keep reserving
// through Shutdown, so that a rejection is often in flight at that look.
func TestShutdownWakesPastRejectedReservations(t *testing.T) {
	for _, cfg := range []Config{ConfigQoQ, pooledAll(2)} {
		t.Run(cfg.Name(), func(t *testing.T) {
			for round := 0; round < 100; round++ {
				rt := New(cfg)
				h := rt.NewHandler("h")
				stop := make(chan struct{})
				var wg sync.WaitGroup
				for i := 0; i < 4; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						c := rt.NewClient()
						for rejected := 0; ; {
							select {
							case <-stop:
								return
							default:
							}
							s, err := c.TryReserve(h)
							if err != nil {
								if rejected++; rejected%64 == 0 {
									runtime.Gosched() // let the pool's workers run Shutdown's last steps
								}
								continue
							}
							s.Sync() // one block at a time: no backlog for Shutdown to drain
							c.End(s)
						}
					}()
				}
				time.Sleep(100 * time.Microsecond)
				down := make(chan struct{})
				go func() { rt.Shutdown(); close(down) }()
				select {
				case <-down:
				case <-time.After(10 * time.Second):
					close(stop) // the wedged runtime stays behind; its clients stop spinning
					t.Fatalf("round %d: Shutdown did not return: a rejected reservation left its handler idle", round)
				}
				close(stop)
				wg.Wait()
			}
		})
	}
}

// The headline scaling shape: far more handlers than workers, all
// passing a token around a ring. 10k handlers on a GOMAXPROCS-sized
// pool must run to completion.
func TestRingManyHandlersFewWorkers(t *testing.T) {
	const ring = 10000
	hops := 30000
	if testing.Short() {
		hops = ring
	}
	rt := New(pooledAll(runtime.GOMAXPROCS(0)))
	defer rt.Shutdown()
	hs := make([]*Handler, ring)
	for i := range hs {
		hs[i] = rt.NewHandler("ring")
	}
	done := make(chan int, 1)
	var pass func(i, v int)
	pass = func(i, v int) {
		if v == 0 {
			done <- i
			return
		}
		next := (i + 1) % ring
		hs[i].AsClient().Separate(hs[next], func(s *Session) {
			s.Call(func() { pass(next, v-1) })
		})
	}
	c := rt.NewClient()
	c.Separate(hs[0], func(s *Session) {
		s.Call(func() { pass(0, hops) })
	})
	select {
	case finisher := <-done:
		if want := hops % ring; finisher != want {
			t.Fatalf("finisher = %d, want %d", finisher, want)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("10k-handler ring did not complete on the pool")
	}
	st := rt.Stats()
	if st.Schedules == 0 {
		t.Error("pooled run recorded no handler schedules")
	}
}

// The handler state machine counts its activations at any pool size, and
// the default configuration (Workers == 0) runs on a pool too.
func TestExecutorStatsCounters(t *testing.T) {
	for _, cfg := range []Config{ConfigAll, pooledAll(2)} {
		rt := New(cfg)
		h := rt.NewHandler("h")
		c := rt.NewClient()
		n := 0
		c.Separate(h, func(s *Session) {
			s.Call(func() { n++ })
			s.SyncNow()
		})
		rt.Shutdown()
		st := rt.Stats()
		if st.Schedules == 0 {
			t.Errorf("%s: Schedules = 0; stats: %+v", cfg.Name(), st)
		}
		if rt.Executor() == nil {
			t.Errorf("%s: Executor() = nil", cfg.Name())
		}
	}
}

// A block longer than the step budget: the handler re-queues itself
// through the injector in the middle of it and must come back to the
// same private queue, with another client's block waiting behind it.
func TestBudgetRequeueKeepsOrder(t *testing.T) {
	const calls = 3*stepBudget + 1
	for _, workers := range []int{0, 1, 4} {
		for _, base := range Configs() {
			cfg := base.WithWorkers(workers)
			t.Run(cfg.Name(), func(t *testing.T) {
				rt := New(cfg)
				h := rt.NewHandler("h")
				var log []int // owned by h
				second := make(chan struct{})
				rt.NewClient().Separate(h, func(s *Session) {
					// Hold h inside the block's first call until the rest is
					// logged: every Step then finds a full budget of work.
					gate := make(chan struct{})
					s.Call(func() { <-gate })
					go func() {
						defer close(second)
						rt.NewClient().Separate(h, func(s2 *Session) {
							s2.Call(func() { log = append(log, -1) })
						})
					}()
					if cfg.QoQ { // lock-based, the second client waits for the lock instead
						settle(t, "the second reservation", func() bool { return rt.Stats().Reservations == 2 })
					}
					for i := 0; i < calls; i++ {
						s.Call(func() { log = append(log, i) })
					}
					close(gate)
					if n := Query(s, func() int { return len(log) }); n != calls {
						t.Errorf("closing query saw %d calls, want %d", n, calls)
					}
				})
				<-second
				rt.Shutdown()
				if len(log) != calls+1 || log[calls] != -1 {
					t.Fatalf("%d entries logged: want %d calls, then the second block's", len(log), calls)
				}
				for i, v := range log[:calls] {
					if v != i {
						t.Fatalf("call %d ran in position %d", v, i)
					}
				}
				// One wake, and a requeue per spent budget.
				if st := rt.Stats(); st.Schedules < 1+calls/stepBudget {
					t.Errorf("Schedules = %d, want at least %d", st.Schedules, 1+calls/stepBudget)
				}
			})
		}
	}
}

// Fork-join work issued from inside a handler call, on the same
// executor that runs the handler: the calling step occupies a worker
// for its whole duration, so on a one-worker pool the join must help
// or compensate rather than park the only worker against its own
// spawned tasks. This is the unified-scheduler contract — data-parallel
// skeletons and handler steps sharing one pool.
func TestForkJoinInsideHandlerCall(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rt := New(pooledAll(workers))
		h := rt.NewHandler("h")
		c := rt.NewClient()
		var sum int64 // handler-owned until synced below
		c.Separate(h, func(s *Session) {
			s.Call(func() {
				sum = sched.ParallelReduce(rt.Executor(), 0, 10000, 64,
					func(lo, hi int) int64 {
						var acc int64
						for i := lo; i < hi; i++ {
							acc += int64(i)
						}
						return acc
					},
					func(a, b int64) int64 { return a + b })
			})
			s.SyncNow()
		})
		if want := int64(10000) * 9999 / 2; sum != want {
			t.Fatalf("workers=%d: sum = %d, want %d", workers, sum, want)
		}
		rt.Shutdown()
		st := rt.Stats()
		if st.TasksSpawned == 0 {
			t.Errorf("workers=%d: TasksSpawned = 0 after in-handler fork-join", workers)
		}
	}
}
