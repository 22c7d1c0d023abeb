package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"scoopqs/internal/future"
)

// futureModes are the execution modes the futures subsystem must behave
// identically under: dedicated goroutines and the M:N executor.
var futureModes = []struct {
	name string
	cfg  Config
}{
	{"dedicated", ConfigAll},
	{"pooled2", ConfigAll.WithWorkers(2)},
}

func TestCallFutureObservesPriorCalls(t *testing.T) {
	for _, m := range futureModes {
		t.Run(m.name, func(t *testing.T) {
			rt := New(m.cfg)
			defer rt.Shutdown()
			h := rt.NewHandler("h")
			n := 0
			c := rt.NewClient()
			var fut *future.Future
			c.Separate(h, func(s *Session) {
				for i := 0; i < 10; i++ {
					s.Call(func() { n++ })
				}
				fut = s.CallFuture(func() any { return n })
			})
			v, err := c.Await(fut)
			if err != nil {
				t.Fatal(err)
			}
			if v.(int) != 10 {
				t.Fatalf("future query saw %v, want 10 (per-session ordering broken)", v)
			}
			if got := rt.Stats().FuturesCreated; got != 1 {
				t.Fatalf("FuturesCreated = %d, want 1", got)
			}
		})
	}
}

func TestQueryAsync(t *testing.T) {
	rt := New(ConfigAll.WithWorkers(2))
	defer rt.Shutdown()
	h := rt.NewHandler("h")
	c := rt.NewClient()
	var fut *future.Future
	c.Separate(h, func(s *Session) {
		fut = QueryAsync(s, func() string { return "qs" })
	})
	if v, err := c.Await(fut); err != nil || v.(string) != "qs" {
		t.Fatalf("QueryAsync = %v, %v", v, err)
	}
}

func TestFuturePanicPropagatesThroughAwait(t *testing.T) {
	for _, m := range futureModes {
		t.Run(m.name, func(t *testing.T) {
			rt := New(m.cfg)
			defer rt.Shutdown()
			h := rt.NewHandler("h")
			c := rt.NewClient()
			var fut *future.Future
			c.Separate(h, func(s *Session) {
				fut = s.CallFuture(func() any { panic("kapow") })
			})
			_, err := c.Await(fut)
			var he *HandlerError
			if !errors.As(err, &he) || fmt.Sprint(he.Value) != "kapow" {
				t.Fatalf("Await error = %v, want *HandlerError(kapow)", err)
			}
			// The panic poisoned that session; a new block still works.
			c.Separate(h, func(s *Session) {
				if got := Query(s, func() int { return 7 }); got != 7 {
					t.Errorf("handler did not survive the panic: %d", got)
				}
			})
		})
	}
}

func TestFutureFlattening(t *testing.T) {
	for _, m := range futureModes {
		t.Run(m.name, func(t *testing.T) {
			rt := New(m.cfg)
			defer rt.Shutdown()
			a, b := rt.NewHandler("a"), rt.NewHandler("b")
			c := rt.NewClient()
			var fut *future.Future
			// a's query returns b's future; the client's future must
			// resolve with b's value, not with a boxed *Future.
			c.Separate(a, func(s *Session) {
				fut = s.CallFuture(func() any {
					var inner *future.Future
					a.AsClient().Separate(b, func(sb *Session) {
						inner = sb.CallFuture(func() any { return int64(99) })
					})
					return inner
				})
			})
			v, err := c.Await(fut)
			if err != nil {
				t.Fatal(err)
			}
			if v.(int64) != 99 {
				t.Fatalf("flattened value = %v, want 99", v)
			}
		})
	}
}

// buildDelegationChain wires hs into a delegation chain in which each
// handler asynchronously queries the next and awaits the result via
// Handler.Await (parking its state machine), adding 1 at
// each hop. It returns the chain's entry function for hs[0].
func buildDelegationChain(hs []*Handler) func(i int) any {
	var step func(i int) any
	step = func(i int) any {
		if i == len(hs)-1 {
			return int64(1)
		}
		p := future.New()
		var inner *future.Future
		hs[i].AsClient().Separate(hs[i+1], func(s *Session) {
			inner = s.CallFuture(func() any { return step(i + 1) })
		})
		hs[i].Await(inner, func(v any, err error) {
			if err != nil {
				p.Fail(err)
				return
			}
			p.Complete(v.(int64) + 1)
		})
		return p
	}
	return step
}

func TestHandlerAwaitDelegationChain(t *testing.T) {
	for _, m := range futureModes {
		t.Run(m.name, func(t *testing.T) {
			const depth = 16
			rt := New(m.cfg)
			defer rt.Shutdown()
			hs := make([]*Handler, depth)
			for i := range hs {
				hs[i] = rt.NewHandler(fmt.Sprintf("h%d", i))
			}
			step := buildDelegationChain(hs)
			c := rt.NewClient()
			var fut *future.Future
			c.Separate(hs[0], func(s *Session) {
				fut = s.CallFuture(func() any { return step(0) })
			})
			v, err := c.Await(fut)
			if err != nil {
				t.Fatal(err)
			}
			if v.(int64) != depth {
				t.Fatalf("chain result %v, want %d", v, depth)
			}
			st := rt.Stats()
			if st.AwaitParks == 0 {
				t.Error("chain never parked a state machine (AwaitParks = 0)")
			}
		})
	}
}

// TestAwaitSpawnReduction is the PR's headline acceptance check:
// on a depth-32 delegation chain under Workers: 4, awaiting futures
// must cut compensation-worker spawns by at least 10x versus blocking
// synchronous queries.
func TestAwaitSpawnReduction(t *testing.T) {
	const depth, workers = 32, 4

	runSync := func() Stats {
		rt := New(ConfigAll.WithWorkers(workers))
		defer rt.Shutdown()
		hs := make([]*Handler, depth)
		for i := range hs {
			hs[i] = rt.NewHandler(fmt.Sprintf("h%d", i))
		}
		var step func(i int) int64
		step = func(i int) int64 {
			if i == len(hs)-1 {
				return 1
			}
			var out int64
			// QueryRemote keeps each hop on its own handler (packaged
			// execution), the true delegation shape: every level's
			// worker blocks until the subtree below it finishes.
			hs[i].AsClient().Separate(hs[i+1], func(s *Session) {
				out = QueryRemote(s, func() int64 { return step(i + 1) }) + 1
			})
			return out
		}
		c := rt.NewClient()
		var got int64
		c.Separate(hs[0], func(s *Session) {
			got = QueryRemote(s, func() int64 { return step(0) })
		})
		if got != depth {
			t.Fatalf("sync chain result %d, want %d", got, depth)
		}
		return rt.Stats()
	}

	runAwait := func() Stats {
		rt := New(ConfigAll.WithWorkers(workers))
		defer rt.Shutdown()
		hs := make([]*Handler, depth)
		for i := range hs {
			hs[i] = rt.NewHandler(fmt.Sprintf("h%d", i))
		}
		step := buildDelegationChain(hs)
		c := rt.NewClient()
		var fut *future.Future
		c.Separate(hs[0], func(s *Session) {
			fut = s.CallFuture(func() any { return step(0) })
		})
		v, err := c.Await(fut)
		if err != nil {
			t.Fatal(err)
		}
		if v.(int64) != depth {
			t.Fatalf("await chain result %v, want %d", v, depth)
		}
		return rt.Stats()
	}

	syncSt, awaitSt := runSync(), runAwait()
	t.Logf("sync: spawns=%d; await: spawns=%d parks=%d (spawns avoided: %d)",
		syncSt.WorkerSpawns, awaitSt.WorkerSpawns, awaitSt.AwaitParks,
		syncSt.WorkerSpawns-awaitSt.WorkerSpawns)
	if syncSt.WorkerSpawns < 10 {
		t.Fatalf("sync chain spawned only %d compensation workers; the baseline is broken", syncSt.WorkerSpawns)
	}
	if awaitSt.WorkerSpawns*10 > syncSt.WorkerSpawns {
		t.Fatalf("await parking did not reduce spawns 10x: sync=%d await=%d",
			syncSt.WorkerSpawns, awaitSt.WorkerSpawns)
	}
}

func TestAwaitAfterShutdownSurfacesErrShutdown(t *testing.T) {
	for _, m := range futureModes {
		t.Run(m.name, func(t *testing.T) {
			rt := New(m.cfg)
			h := rt.NewHandler("h")
			c := rt.NewClient()
			var done *future.Future
			c.Separate(h, func(s *Session) {
				done = s.CallFuture(func() any { return 5 })
			})
			rt.Shutdown()

			// A future that resolved before (or during) shutdown keeps
			// its value.
			if v, err := c.Await(done); err != nil || v.(int) != 5 {
				t.Fatalf("resolved future after shutdown: %v, %v", v, err)
			}

			// A future nothing will ever resolve must error out, not
			// hang.
			errc := make(chan error, 1)
			go func() {
				_, err := c.Await(future.New())
				errc <- err
			}()
			select {
			case err := <-errc:
				if !errors.Is(err, ErrShutdown) {
					t.Fatalf("Await after Shutdown = %v, want ErrShutdown", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Await hung after Shutdown")
			}
		})
	}
}

// A query that returns a promise nobody resolves leaves its flattened
// future pending after the handler has drained. Shutdown must fail that
// straggler from the registry; Get, unlike Client.Await, does not watch
// the runtime going down, so only the registry can release it. The
// registry holds flattened futures only: one that resolves on its
// handler, directly or through a resolved promise, leaves no entry.
func TestShutdownFailsOrphanedFuture(t *testing.T) {
	for _, m := range futureModes {
		t.Run(m.name, func(t *testing.T) {
			rt := New(m.cfg)
			h := rt.NewHandler("h")
			c := rt.NewClient()
			registered := func() int {
				rt.flatMu.Lock()
				defer rt.flatMu.Unlock()
				return len(rt.flat)
			}
			c.Separate(h, func(s *Session) {
				for i := 0; i < 64; i++ {
					s.CallFuture(func() any { return i })
					s.CallFuture(func() any { return future.Completed(i) })
				}
				s.Sync()
			})
			if n := registered(); n != 0 {
				t.Fatalf("%d futures registered after a batch resolved, want 0", n)
			}
			var fut *future.Future
			c.Separate(h, func(s *Session) {
				fut = s.CallFuture(func() any { return future.New() })
				s.Sync()
			})
			if _, _, ok := fut.TryGet(); ok {
				t.Fatal("future flattened onto an orphaned promise resolved before Shutdown")
			}
			if n := registered(); n != 1 {
				t.Fatalf("%d futures registered with one flattened onto a pending promise, want 1", n)
			}
			rt.Shutdown()

			errc := make(chan error, 1)
			go func() {
				_, err := fut.Get()
				errc <- err
			}()
			select {
			case err := <-errc:
				if !errors.Is(err, ErrShutdown) {
					t.Fatalf("orphaned future after Shutdown = %v, want ErrShutdown", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("orphaned future still pending 10 s after Shutdown")
			}
		})
	}
}

// TestPoisonedContinuationFailsPromises guards against dropped
// continuations: when a continuation panics (poisoning the session),
// continuations still pending must run with the poison as their error
// — not be skipped — so the promises they resolve fail instead of
// leaving awaiters hanging forever.
func TestPoisonedContinuationFailsPromises(t *testing.T) {
	for _, m := range futureModes {
		t.Run(m.name, func(t *testing.T) {
			rt := New(m.cfg)
			defer rt.Shutdown()
			h := rt.NewHandler("h")
			c := rt.NewClient()
			var fut *future.Future
			c.Separate(h, func(s *Session) {
				fut = s.CallFuture(func() any {
					p := future.New()
					h.Await(future.Completed(nil), func(any, error) {
						h.Await(future.Completed(nil), func(v any, err error) {
							if err != nil {
								p.Fail(err)
								return
							}
							p.Complete(1)
						})
						panic("mid-chain")
					})
					return p
				})
			})
			done := make(chan struct{})
			var err error
			go func() {
				_, err = c.Await(fut)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("promise behind a poisoned continuation never resolved")
			}
			var he *HandlerError
			if !errors.As(err, &he) || fmt.Sprint(he.Value) != "mid-chain" {
				t.Fatalf("promise resolved with %v, want the poisoning *HandlerError", err)
			}
		})
	}
}

func TestDoubleAwaitInOneRequestPanics(t *testing.T) {
	rt := New(ConfigAll)
	defer rt.Shutdown()
	h := rt.NewHandler("h")
	c := rt.NewClient()
	var fut *future.Future
	c.Separate(h, func(s *Session) {
		fut = s.CallFuture(func() any {
			h.Await(future.Completed(1), func(any, error) {})
			h.Await(future.Completed(2), func(any, error) {}) // must panic
			return nil
		})
	})
	_, err := c.Await(fut)
	var he *HandlerError
	if !errors.As(err, &he) {
		t.Fatalf("second Await did not panic the request: %v", err)
	}
}

// TestSessionReuseUnderOversubscribedPool asserts the END-handoff
// re-arm: even when the one pool worker lags far behind, a client's
// repeated blocks reuse its cached private queues instead of
// allocating fresh ones, so SessionsNew stops climbing.
func TestSessionReuseUnderOversubscribedPool(t *testing.T) {
	rt := New(ConfigAll.WithWorkers(1))
	defer rt.Shutdown()
	a, b := rt.NewHandler("a"), rt.NewHandler("b")
	na, nb := 0, 0
	c := rt.NewClient()
	const blocks = 300
	for i := 0; i < blocks; i++ {
		c.Separate(a, func(s *Session) { s.Call(func() { na++ }) })
		c.Separate(b, func(s *Session) { s.Call(func() { nb++ }) })
	}
	// Sync both handlers so every block above has fully executed.
	c.Separate(a, func(s *Session) { s.Sync() })
	c.Separate(b, func(s *Session) { s.Sync() })
	if na != blocks || nb != blocks {
		t.Fatalf("calls lost: na=%d nb=%d, want %d", na, nb, blocks)
	}
	st := rt.Stats()
	if st.SessionsNew != 2 {
		t.Fatalf("SessionsNew = %d, want 2 (one cached queue per handler)", st.SessionsNew)
	}
	if st.SessionsReused < 2*blocks-2 {
		t.Fatalf("SessionsReused = %d, want %d", st.SessionsReused, 2*blocks)
	}
}
