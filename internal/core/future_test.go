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

// A query's result is the future's value whatever its type: a query
// that returns a *future.Future, even one nothing has resolved, resolves
// with that future itself rather than waiting for it.
func TestCallFutureReturnsFutureAsValue(t *testing.T) {
	for _, m := range futureModes {
		t.Run(m.name, func(t *testing.T) {
			rt := New(m.cfg)
			defer rt.Shutdown()
			h := rt.NewHandler("h")
			c := rt.NewClient()
			inner := future.New()
			var fut *future.Future
			c.Separate(h, func(s *Session) {
				fut = s.CallFuture(func() any { return inner })
			})
			select {
			case <-fut.Done():
			case <-time.After(10 * time.Second):
				t.Fatal("future still pending: it waits on the future its query returned")
			}
			v, err := c.Await(fut)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := v.(*future.Future); !ok || got != inner {
				t.Fatalf("future resolved with %v, want the query's own future", v)
			}
			if _, _, ok := inner.TryGet(); ok {
				t.Fatal("the returned future resolved, but nothing completed it")
			}
		})
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

// Handlers drain every request they accepted before they retire, so
// every CallFuture future has resolved by the time Shutdown returns:
// none needs failing, and a plain Get on one can never hang. The blocks
// end without a sync, leaving their queries queued at Shutdown.
func TestShutdownResolvesEveryCallFuture(t *testing.T) {
	const handlers, blocks, perBlock = 4, 8, 4 // 128 futures
	for _, m := range futureModes {
		t.Run(m.name, func(t *testing.T) {
			rt := New(m.cfg)
			hs := make([]*Handler, handlers)
			for i := range hs {
				hs[i] = rt.NewHandler(fmt.Sprintf("h%d", i))
			}
			c := rt.NewClient()
			var futs []*future.Future
			for b := 0; b < blocks; b++ {
				for _, h := range hs {
					c.Separate(h, func(s *Session) {
						for i := 0; i < perBlock; i++ {
							switch i {
							case 0:
								futs = append(futs, s.CallFuture(func() any { return future.New() }))
							case 1:
								futs = append(futs, s.CallFuture(func() any { panic("kapow") }))
							default:
								futs = append(futs, s.CallFuture(func() any { return i }))
							}
						}
					})
				}
			}
			rt.Shutdown()
			for i, f := range futs {
				if _, _, ok := f.TryGet(); !ok {
					t.Fatalf("future %d of %d still pending after Shutdown", i, len(futs))
				}
			}
			if got := rt.Stats().FuturesCreated; got != handlers*blocks*perBlock {
				t.Fatalf("FuturesCreated = %d, want %d", got, handlers*blocks*perBlock)
			}
		})
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
