package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countParks makes rt count its clients' parks (Client.park); set it
// before any client of rt runs.
func countParks(rt *Runtime) *atomic.Int64 {
	var n atomic.Int64
	rt.parkHook = func() { n.Add(1) }
	return &n
}

// TestClaimedRoundTripsDoNotPark pins the lent session: once a block's
// first round trip has engaged the handler, a plain client's Call+SyncNow
// and packaged queries run on the client, which claims the session the
// handler lends while it waits, and almost never park. Under ConfigQoQ,
// the control, every round trip parks. Under the race detector a parked
// client takes longer to wake than the engaged wait lasts, so one missed
// claim can start a run of parks; there the test asks only that nine
// round trips in ten are claimed.
func TestClaimedRoundTripsDoNotPark(t *testing.T) {
	const trips = 2000
	limit := int64(8)
	if raceEnabled {
		limit = trips / 10
	}
	for _, base := range []Config{ConfigAll, ConfigQoQ} {
		for _, workers := range []int{0, 2} {
			cfg := base.WithWorkers(workers)
			t.Run(cfg.Name(), func(t *testing.T) {
				rt := New(cfg)
				defer rt.Shutdown()
				parks := countParks(rt)
				h := rt.NewHandler("h")
				var n, x int64
				inc := func() { n++ }
				get := func() int64 { x++; return x }
				var syncParks, queryParks int64
				rt.NewClient().Separate(h, func(s *Session) {
					s.SyncNow() // the block's first round trip parks
					parks.Store(0)
					for range trips {
						s.Call(inc)
						s.SyncNow()
					}
					syncParks = parks.Swap(0)
					for range trips {
						QueryRemote(s, get)
					}
					queryParks = parks.Load()
				})
				if n != trips || x != trips {
					t.Fatalf("ran %d calls and %d queries, want %d each", n, x, trips)
				}
				if cfg.DynElide {
					if syncParks > limit || queryParks > limit {
						t.Errorf("%d Call+SyncNow parked %d times and %d QueryRemote %d times, want ≤ %d each", trips, syncParks, trips, queryParks, limit)
					}
				} else if syncParks != trips || queryParks != trips {
					t.Errorf("%d Call+SyncNow parked %d times and %d QueryRemote %d times, want once per round trip", trips, syncParks, trips, queryParks)
				}
			})
		}
	}
}

// lendConfigs are the configurations the claim tests run under: the
// default pool and an explicit one of two workers.
var lendConfigs = []Config{ConfigAll, ConfigAll.WithWorkers(2)}

// claimedQuery runs QueryRemote(s, q) until one runs claimed, on the
// client with the handler's worker slot cleared (a round trip the handler
// answered runs q with it set), and returns that one's result. It gives
// up after many tries, and the test with it.
func claimedQuery[T any](t *testing.T, s *Session, q func() T) T {
	t.Helper()
	for range 100000 {
		var claimed bool
		v := QueryRemote(s, func() T {
			if claimed = s.h.onWorker == nil; !claimed {
				var zero T
				return zero
			}
			return q()
		})
		if claimed {
			return v
		}
	}
	t.Fatal("no packaged query ran claimed")
	panic("unreachable")
}

// TestClaimReusedSessionAcrossBlocks reuses one session block after block,
// each with a parked round trip, a claimed one or two, and an END that
// the handler may still have queued when the next block's first round
// trip looks at the lend word. A lend from the block before must not be
// claimed then: the client would run that block's END itself.
func TestClaimReusedSessionAcrossBlocks(t *testing.T) {
	for _, cfg := range lendConfigs {
		t.Run(cfg.Name(), func(t *testing.T) {
			rt := New(cfg)
			defer rt.Shutdown()
			h := rt.NewHandler("h")
			c := rt.NewClient()
			var n int64
			inc := func() { n++ }
			get := func() int64 { return n }
			const blocks = 3000
			within(t, "the blocks", func() {
				for i := range blocks {
					c.Separate(h, func(s *Session) {
						s.Call(inc)
						s.SyncNow()
						s.Call(inc)
						s.SyncNow()
						if got := Query(s, get); got != int64(2*i+2) {
							t.Errorf("block %d: Query = %d, want %d", i, got, 2*i+2)
						}
						if got := QueryRemote(s, get); got != int64(2*i+2) {
							t.Errorf("block %d: QueryRemote = %d, want %d", i, got, 2*i+2)
						}
					})
				}
			})
			settle(t, "the last END", func() bool { return rt.Stats().EndsProcessed == blocks })
			if st := rt.Stats(); st.SessionsNew != 1 {
				t.Errorf("SessionsNew = %d, want 1: the blocks reuse one session", st.SessionsNew)
			}
		})
	}
}

// TestClaimRefusesStaleLend finds a lend standing on a session whose
// block before has logged its END: a handler that found the queue empty
// just before that END publishes its lend after the client's closeBlock
// has looked, and takes it back only after lendGrace. That race is a few
// instructions wide, so the test forges the word, while the handler runs
// another client's block queued between the two. The client's first
// round trip of its next block must park, not claim: a claim would run
// the new block's call ahead of the other client's block.
func TestClaimRefusesStaleLend(t *testing.T) {
	for _, cfg := range lendConfigs {
		t.Run(cfg.Name(), func(t *testing.T) {
			rt := New(cfg)
			defer rt.Shutdown()
			inB, release := make(chan struct{}), make(chan struct{})
			free := sync.OnceFunc(func() { close(release) })
			var syncing atomic.Bool
			rt.parkHook = func() {
				if syncing.Load() {
					free()
				}
			}
			h := rt.NewHandler("h")
			var ran []string // owned by h
			note := func(who string) func() { return func() { ran = append(ran, who) } }
			a, b := rt.NewClient(), rt.NewClient()
			var got []string
			within(t, "the blocks", func() {
				a.Separate(h, func(s *Session) {
					s.Call(note("a1"))
					s.SyncNow()
				})
				sb, err := b.TryReserve(h)
				if err != nil {
					t.Fatal(err)
				}
				sb.Call(func() {
					close(inB)
					<-release
					ran = append(ran, "b")
				})
				b.End(sb)
				<-inB
				a.Separate(h, func(s *Session) {
					s.Call(note("a2"))
					s.lend.Store(lentAt(s.q.Enqueued(), 0))
					syncing.Store(true)
					s.SyncNow()
					free()
				})
				a.Separate(h, func(s *Session) {
					got = QueryRemote(s, func() []string { return append([]string(nil), ran...) })
				})
			})
			if len(got) != 3 || got[0] != "a1" || got[1] != "b" || got[2] != "a2" {
				t.Errorf("blocks ran %v, want [a1 b a2]", got)
			}
		})
	}
}

// TestClaimWhileReservationWakes holds a claimed packaged query until the
// handler has left its engaged wait and idled, and until another client's
// reservation has woken it again. The Step such a wake starts must leave
// what the claiming client holds alone: the worker slot in particular
// stays cleared, so code the client runs for h pushes into no worker's
// slot. The other blocks run once the claimed one has ended, in order.
func TestClaimWhileReservationWakes(t *testing.T) {
	for _, cfg := range lendConfigs {
		t.Run(cfg.Name(), func(t *testing.T) {
			rt := New(cfg)
			defer rt.Shutdown()
			h := rt.NewHandler("h")
			var ran []string // owned by h
			note := func(who string) func() { return func() { ran = append(ran, who) } }
			inside, gate, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
			var cleared bool
			go func() {
				defer close(done)
				rt.NewClient().Separate(h, func(s *Session) {
					s.SyncNow()
					cleared = claimedQuery(t, s, func() bool {
						close(inside)
						<-gate
						return h.onWorker == nil
					})
					s.Call(note("a"))
					s.SyncNow()
				})
			}()
			<-inside
			reserve := func(who string) {
				parks := rt.Stats().HandlerParks
				c := rt.NewClient()
				s, err := c.TryReserve(h) // QoQ: enqueues, wakes h and returns
				if err != nil {
					t.Fatal(err)
				}
				s.Call(note(who))
				c.End(s)
				settle(t, "the handler idles with the session claimed", func() bool { return rt.Stats().HandlerParks > parks })
			}
			reserve("b") // wakes the handler in its engaged wait, which then leaves it
			reserve("c") // wakes the idle handler: a Step of its own
			close(gate)
			var got []string
			within(t, "the blocks", func() {
				<-done
				rt.NewClient().Separate(h, func(s *Session) {
					got = QueryRemote(s, func() []string { return append([]string(nil), ran...) })
				})
			})
			if !cleared {
				t.Error("a Step started while the session was claimed set the handler's worker slot")
			}
			if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
				t.Errorf("blocks ran %v, want [a b c]", got)
			}
		})
	}
}

// TestClaimAsClient runs a block on another handler from a claimed query,
// through the claimed handler's own client (Handler.AsClient): on the
// claiming client's goroutine, with the worker slot cleared, so its
// wakes go through the pool's injector, and its own round trips park or
// claim like any client's.
func TestClaimAsClient(t *testing.T) {
	for _, cfg := range lendConfigs {
		t.Run(cfg.Name(), func(t *testing.T) {
			rt := New(cfg)
			defer rt.Shutdown()
			h, h2 := rt.NewHandler("h"), rt.NewHandler("h2")
			var x int64 // owned by h2
			var got int64
			var slot *bool
			within(t, "the block", func() {
				rt.NewClient().Separate(h, func(s *Session) {
					s.SyncNow()
					got = claimedQuery(t, s, func() int64 {
						self := h.AsClient()
						cleared := self.curWorker() == nil
						slot = &cleared
						var v int64
						self.Separate(h2, func(s2 *Session) {
							for range 100 {
								s2.Call(func() { x++ })
								s2.SyncNow()
							}
							v = QueryRemote(s2, func() int64 { return x })
						})
						return v
					})
				})
			})
			if slot == nil || !*slot {
				t.Error("AsClient inside a claimed query had a worker slot")
			}
			if got != 100 {
				t.Errorf("nested block returned %d, want 100", got)
			}
		})
	}
}

// TestClaimPanicPoisonsOnlyItsBlock panics in a claimed packaged query
// and in a claimed call: each poisons its own block, with the handler's
// rules, and the client's next block on the handler starts clean.
func TestClaimPanicPoisonsOnlyItsBlock(t *testing.T) {
	for _, cfg := range lendConfigs {
		t.Run(cfg.Name(), func(t *testing.T) {
			rt := New(cfg)
			defer rt.Shutdown()
			h := rt.NewHandler("h")
			c := rt.NewClient()
			var n int64 // owned by h
			inc := func() { n++ }
			poisoned := func(what string, body func(*Session)) {
				t.Helper()
				defer func() {
					var he *HandlerError
					if err, _ := recover().(error); !errors.As(err, &he) || he.Value != what {
						t.Errorf("recovered %v, want the HandlerError of %q", err, what)
					}
				}()
				c.Separate(h, body)
			}
			within(t, "the blocks", func() {
				poisoned("query", func(s *Session) {
					s.SyncNow()
					claimedQuery(t, s, func() int { panic("query") })
				})
				poisoned("call", func(s *Session) {
					s.SyncNow()
					for {
						s.Call(func() {
							if h.onWorker == nil {
								panic("call")
							}
						})
						s.SyncNow()
					}
				})
				c.Separate(h, func(s *Session) {
					s.Call(inc)
					s.SyncNow()
					s.Call(inc)
					if v := QueryRemote(s, func() int64 { return n }); v != 2 {
						t.Errorf("clean block read %d, want 2", v)
					}
				})
			})
		})
	}
}

// TestClaimShutdown calls Shutdown while the handler lends its session:
// the block goes on claiming until it ends, Shutdown returns only then,
// and the next reservation fails.
func TestClaimShutdown(t *testing.T) {
	for _, cfg := range lendConfigs {
		t.Run(cfg.Name(), func(t *testing.T) {
			rt := New(cfg)
			h := rt.NewHandler("h")
			c := rt.NewClient()
			var n int64 // owned by h
			inc := func() { n++ }
			down := make(chan struct{})
			within(t, "the block", func() {
				c.Separate(h, func(s *Session) {
					s.SyncNow()
					go func() {
						rt.Shutdown()
						close(down)
					}()
					for range 500 {
						s.Call(inc)
						s.SyncNow()
					}
					for range 500 {
						QueryRemote(s, func() int64 { return n })
					}
					select {
					case <-down:
						t.Error("Shutdown returned with a block open")
					default:
					}
				})
			})
			within(t, "Shutdown", func() { <-down })
			if n != 500 {
				t.Errorf("ran %d calls, want 500", n)
			}
			defer func() {
				if r := recover(); r != ErrShutdown {
					t.Errorf("reservation after Shutdown recovered %v, want ErrShutdown", r)
				}
			}()
			c.Separate(h, func(*Session) {})
		})
	}
}

// TestClaimYieldsWorker keeps a client claiming on a pool of one worker,
// which the lending handler's wait occupies: the wait gives the worker
// up after a slice of claims, so another handler's block still gets it.
func TestClaimYieldsWorker(t *testing.T) {
	rt := New(ConfigAll.WithWorkers(1))
	defer rt.Shutdown()
	var stop atomic.Bool
	defer stop.Store(true) // before Shutdown, which waits for the pinging block
	h, h2 := rt.NewHandler("h"), rt.NewHandler("h2")
	var pings atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.NewClient().Separate(h, func(s *Session) {
			for !stop.Load() {
				s.Call(func() { pings.Add(1) })
				s.SyncNow()
			}
		})
	}()
	settle(t, "the pings", func() bool { return pings.Load() > 10000 })
	withinFor(t, 5*time.Second, "a block on another handler", func() {
		rt.NewClient().Separate(h2, func(s *Session) {
			s.Call(func() {})
			QueryRemote(s, func() int { return 1 })
		})
	})
	stop.Store(true)
	within(t, "the pinging block", func() { <-done })
}
