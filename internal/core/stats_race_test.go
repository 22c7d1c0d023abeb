package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"scoopqs/internal/future"
	"scoopqs/internal/obs"
)

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
				if _, err := c.Await(future.All(futs...)); err != nil {
					t.Fatal(err)
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
