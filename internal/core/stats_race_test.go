package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"scoopqs/internal/future"
	"scoopqs/internal/obs"
)

// counts is the per-request part of Stats, which each client folds in at
// its synchronization points.
type counts struct{ calls, local, elided int64 }

func countsOf(st Stats) counts { return counts{st.AsyncCalls, st.LocalQueries, st.SyncsElided} }

// TestClientCountsReachStats pins when the per-request counts reach
// Stats: at a round trip that parks — a block's first always does, and
// without DynElide every SyncNow and packaged query does (with it, the
// client may run a later one itself, claiming a lent session, and flushes
// nothing) — and at every block end — a
// panicking body's, a SeparateMany's (whose sessions fold once, not once
// each) and a SeparateWhen's whose guard logged requests for the parked
// client (on the handler under QoQ, on the client otherwise) — and a
// failed guard's requests still count when Shutdown gives the block up.
func TestClientCountsReachStats(t *testing.T) {
	for _, base := range []Config{ConfigAll, ConfigDynamic, ConfigQoQ} {
		for _, workers := range []int{0, 2} {
			cfg := base.WithWorkers(workers)
			t.Run(cfg.Name(), func(t *testing.T) {
				rt := New(cfg)
				defer rt.Shutdown()
				h, h2 := rt.NewHandler("a"), rt.NewHandler("b")
				c := rt.NewClient()
				// local and elided: what one Query adds, client-side or
				// packaged, with its sync elided or not.
				local, elided := int64(0), int64(0)
				if cfg.clientSideQuery() {
					local = 1
				}
				if cfg.DynElide {
					elided = 1
				}
				var want counts
				check := func(step string) {
					t.Helper()
					if got := countsOf(rt.Stats()); got != want {
						t.Fatalf("after %s: {AsyncCalls LocalQueries SyncsElided} = %+v, want %+v", step, got, want)
					}
				}
				nop := func() {}
				var x int64
				get := func() int64 { return x }

				c.Separate(h, func(s *Session) {
					s.Call(nop)
					s.Call(nop)
					s.Call(nop)
					s.SyncNow()
					want.calls += 3
					check("SyncNow")

					s.Call(nop)
					Query(s, get) // client-side after a sync round trip, or packaged
					QueryRemote(s, get)
					want.calls++
					want.local += local
					if !cfg.DynElide { // else both round trips may be claimed
						check("a packaged query")
					}

					s.Call(nop)
					Query(s, get)
				})
				want.calls++
				want.local += local
				check("a block end")

				func() {
					defer func() {
						if r := recover(); r != "boom" {
							t.Fatalf("recovered %v, want boom", r)
						}
					}()
					c.Separate(h, func(s *Session) {
						s.SyncNow()
						LocalQuery(s, get)
						Query(s, get) // elided under DynElide: the session is synced
						s.Call(nop)
						s.Call(nop)
						panic("boom")
					})
				}()
				want.calls += 2
				want.local += 1 + local
				want.elided += elided
				check("a panicking block")

				c.SeparateMany([]*Handler{h, h2}, func(ss []*Session) {
					ss[0].Call(nop)
					ss[0].Call(nop)
					ss[1].Call(nop)
					ss[1].SyncNow()
					LocalQuery(ss[1], get)
					ss[1].Call(nop)
				})
				want.calls += 4
				want.local++
				check("a SeparateMany block")

				// The guard fails once, files the client, and holds after the
				// setter's block: evaluated twice (or more, for a client
				// woken at an END that changed nothing), always by one
				// goroutine at a time.
				var ready bool
				evals := int64(0)
				retries := rt.Stats().GuardRetries
				var setter sync.WaitGroup
				setter.Add(1)
				go func() {
					defer setter.Done()
					for rt.Stats().GuardRetries == retries {
						runtime.Gosched()
					}
					rt.NewClient().Separate(h, func(s *Session) { s.Call(func() { ready = true }) })
				}()
				within(t, "SeparateWhen", func() {
					c.SeparateWhen([]*Handler{h}, func(ss []*Session) bool {
						evals++
						ss[0].Call(nop)
						Query(ss[0], func() bool { return ready })
						return Query(ss[0], func() bool { return ready })
					}, func(ss []*Session) { ss[0].Call(nop) })
				})
				setter.Wait()
				if evals < 2 {
					t.Fatalf("guard evaluated %d times, want ≥ 2", evals)
				}
				want.calls += evals + 1 + 1 // the guard's, the body's, the setter's
				want.local += 2 * evals * local
				want.elided += evals * elided
				check("a SeparateWhen block")

				// A guard that never holds, given up by Shutdown: the block
				// never starts, and its guard's calls still count.
				evals, retries = 0, rt.Stats().GuardRetries
				gaveUp := make(chan any, 1)
				go func() {
					defer func() { gaveUp <- recover() }()
					c.SeparateWhen([]*Handler{h}, func(ss []*Session) bool {
						evals++
						ss[0].Call(nop)
						return false
					}, func([]*Session) { t.Error("body of a guard that never holds ran") })
				}()
				settle(t, "the failed guard", func() bool { return rt.Stats().GuardRetries > retries })
				rt.Shutdown()
				if r := <-gaveUp; r != ErrShutdown {
					t.Fatalf("SeparateWhen past Shutdown raised %v, want ErrShutdown", r)
				}
				want.calls += evals
				check("a SeparateWhen given up by Shutdown")
			})
		}
	}
}

// TestClientCountsDuringStorm checks the folded counts from outside:
// while 8 clients run 500 blocks each, spectators' snapshots of the
// per-request counts never go down and never pass the final totals, and
// once every block has ended the totals are exact.
func TestClientCountsDuringStorm(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rt := New(ConfigAll.WithWorkers(2))
			defer rt.Shutdown()
			const clients, blocks = 8, 500
			hs := []*Handler{rt.NewHandler("s0"), rt.NewHandler("s1"), rt.NewHandler("s2")}
			vals := make([]int64, len(hs)) // vals[j] owned by hs[j]

			stop := make(chan struct{})
			seen := make([]counts, 2) // each spectator's last snapshot
			var spect sync.WaitGroup
			for i := range seen {
				spect.Add(1)
				go func() {
					defer spect.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						got, last := countsOf(rt.Stats()), seen[i]
						if got.calls < last.calls || got.local < last.local || got.elided < last.elided {
							t.Errorf("snapshot went down: %+v after %+v", got, last)
							return
						}
						seen[i] = got
						runtime.Gosched() // at GOMAXPROCS 1 a spinning spectator costs each hand-off a time slice
					}
				}()
			}

			var work sync.WaitGroup
			for k := 0; k < clients; k++ {
				work.Add(1)
				go func() {
					defer work.Done()
					c := rt.NewClient()
					for b := 0; b < blocks; b++ {
						// Per block: 4 calls, 2 client-side queries, 1 sync
						// elided; the first query's sync flushes the calls
						// before it, the rest arrive at the block end.
						j := (k + b) % len(hs)
						inc, get := func() { vals[j]++ }, func() int64 { return vals[j] }
						c.Separate(hs[j], func(s *Session) {
							s.Call(inc)
							s.Call(inc)
							s.Call(inc)
							Query(s, get)
							Query(s, get)
							s.Call(inc)
						})
					}
				}()
			}
			work.Wait()
			close(stop)
			spect.Wait()

			final := countsOf(rt.Stats())
			if want := (counts{4 * clients * blocks, 2 * clients * blocks, clients * blocks}); final != want {
				t.Fatalf("final counts = %+v, want %+v", final, want)
			}
			for i, last := range seen {
				if last.calls > final.calls || last.local > final.local || last.elided > final.elided {
					t.Errorf("spectator %d saw %+v, past the final %+v", i, last, final)
				}
			}
		})
	}
}

// TestStatsSnapshotDuringStorm hammers Runtime.Stats and the obs
// registry's histogram merge from spectator goroutines while a
// fan-out workload keeps the pooled executor busy — the live-snapshot
// guarantee both APIs claim, checked under -race at the two
// interesting GOMAXPROCS settings.
func TestStatsSnapshotDuringStorm(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			obs.Enable()
			defer obs.Disable()

			rt := New(ConfigAll.WithWorkers(2))
			defer rt.Shutdown()
			const width, calls, rounds = 16, 50, 5
			hs := make([]*Handler, width)
			sums := make([]int64, width)
			for i := range hs {
				hs[i] = rt.NewHandler(fmt.Sprintf("storm%d", i))
			}

			stop := make(chan struct{})
			var spect sync.WaitGroup
			for s := 0; s < 2; s++ {
				spect.Add(1)
				go func() {
					defer spect.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						_ = rt.Stats()
						for _, snap := range obs.Default().Snapshot() {
							_ = snap.P99()
						}
					}
				}()
			}

			c := rt.NewClient()
			for r := 0; r < rounds; r++ {
				futs := make([]*future.Future, width)
				for i, h := range hs {
					i := i
					c.Separate(h, func(s *Session) {
						for j := 0; j < calls; j++ {
							s.Call(func() { sums[i]++ })
						}
						// First sync performs (the calls desynchronized
						// the session); the second is dynamically elided
						// under ConfigAll — so the storm also exercises
						// the sync counters and the elide event path.
						s.Sync()
						s.Sync()
						futs[i] = QueryAsync(s, func() int64 { return sums[i] })
					})
				}
				for _, f := range futs {
					if _, err := c.Await(f); err != nil {
						t.Fatal(err)
					}
				}
			}
			close(stop)
			spect.Wait()
			for i := range sums {
				if sums[i] != calls*rounds {
					t.Fatalf("handler %d executed %d calls, want %d", i, sums[i], calls*rounds)
				}
			}
			// Exactly one sync performed and one elided per block: the two
			// counters must agree to the call, even under the storm.
			st := rt.Stats()
			if want := int64(width * rounds); st.SyncsPerformed != want || st.SyncsElided != want {
				t.Fatalf("sync counters = performed %d / elided %d, want %d each",
					st.SyncsPerformed, st.SyncsElided, want)
			}
		})
	}
}
