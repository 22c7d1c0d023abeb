package core

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// The inline sync (Client.syncInline): a handler-hosted client whose
// round trip has just woken its target into its own worker's next slot
// runs the target's Step itself instead of parking. CI runs these
// (pattern Inline) under -race at GOMAXPROCS 1, 2 and 4. Each bounds
// its waits by 10 s, and shuts its runtime down only once they are
// through: Shutdown on a wedged runtime would hang instead of failing.

// hosted runs f as a call on a fresh handler, where it may use the
// handler's AsClient, and waits for it to return.
func hosted(t *testing.T, rt *Runtime, f func(c *Client)) {
	t.Helper()
	host := rt.NewHandler("host")
	done := make(chan struct{})
	rt.NewClient().Separate(host, func(s *Session) {
		s.Call(func() {
			defer close(done)
			f(host.AsClient())
		})
	})
	withinFor(t, 10*time.Second, "the hosted client", func() { <-done })
}

// A threadring-shaped sync ring (passToken: store, confirming query,
// next hop) runs every hop's target inline: each confirming query finds
// the target its hop just woke in its own worker's next slot and runs it
// there, so no hop parks a worker or goes through the injector. Parking
// the client instead cost one WorkerParks and one InjectorPushes per hop.
func TestSyncRingRunsTargetInline(t *testing.T) {
	const ring, hops = 8, 2000
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rt := New(pooledAll(workers))
			hs := make([]*Handler, ring)
			for i := range hs {
				hs[i] = rt.NewHandler("ring")
			}
			before := rt.Stats()
			passToken(t, rt, hs, hops)
			after := rt.Stats()
			rt.Shutdown()
			parks := after.WorkerParks - before.WorkerParks
			injected := after.InjectorPushes - before.InjectorPushes
			t.Logf("over %d hops: WorkerParks +%d, InjectorPushes +%d, LocalPushes +%d, HandlerParks +%d, WorkerSpawns +%d",
				hops, parks, injected, after.LocalPushes-before.LocalPushes,
				after.HandlerParks-before.HandlerParks, after.WorkerSpawns-before.WorkerSpawns)
			if parks > ring {
				t.Errorf("WorkerParks grew by %d over %d hops, want <= %d (the ring size)", parks, hops, ring)
			}
			if injected > ring {
				t.Errorf("InjectorPushes grew by %d over %d hops, want <= %d (the ring size)", injected, hops, ring)
			}
		})
	}
}

// A target pinned mid-block by another client answers nothing when run
// inline: its Step polls the pinned block once and idles, and the hosted
// client parks as before, to be answered only after the other block's
// END. On a pool of one that park spawns a compensation worker.
func TestInlineSyncTargetPinnedByAnotherClient(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rt := New(pooledAll(workers))
			target := rt.NewHandler("target")
			var log []string // owned by target
			holding, release, otherDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(otherDone)
				rt.NewClient().Separate(target, func(s *Session) {
					s.SyncNow()
					close(holding)
					<-release
					s.Call(func() { log = append(log, "other") })
				})
			}()
			<-holding
			settleFor(t, 10*time.Second, "the target idling mid-block", func() bool { return rt.Stats().HandlerParks >= 1 })
			parks := rt.Stats().HandlerParks

			got := make(chan []string, 1)
			host := rt.NewHandler("host")
			rt.NewClient().Separate(host, func(s *Session) {
				s.Call(func() {
					host.AsClient().Separate(target, func(s *Session) {
						s.Call(func() { log = append(log, "hosted") })
						got <- Query(s, func() []string { return slices.Clone(log) })
					})
				})
			})
			// The target ran for the hosted query and idled again, still
			// pinned on the other block.
			settleFor(t, 10*time.Second, "the target idling on the other block again", func() bool { return rt.Stats().HandlerParks > parks })
			select {
			case v := <-got:
				t.Fatalf("hosted query answered %q while the other block was open", v)
			default:
			}
			if workers == 1 {
				settleFor(t, 10*time.Second, "a compensation worker for the parked client", func() bool { return rt.Stats().WorkerSpawns >= 1 })
			}
			close(release)
			withinFor(t, 10*time.Second, "the hosted query", func() {
				if v := <-got; !slices.Equal(v, []string{"other", "hosted"}) {
					t.Errorf("hosted query saw %q, want [other hosted]", v)
				}
			})
			<-otherDone
			rt.Shutdown()
		})
	}
}

// A call that panics while its handler runs inline poisons only its
// block: the hosted client's query panics with the target's
// *HandlerError, and the client's next block on the target runs clean.
// On a pool of one every sync is answered inline, so no worker is ever
// spawned for a parked client.
func TestInlinePanicPoisonsOnlyItsBlock(t *testing.T) {
	for _, cfg := range []Config{pooledAll(1), pooledAll(2), ConfigQoQ.WithWorkers(1)} {
		t.Run(cfg.Name(), func(t *testing.T) {
			rt := New(cfg)
			target := rt.NewHandler("target")
			n := 0 // owned by target
			var herr *HandlerError
			var after int
			hosted(t, rt, func(c *Client) {
				func() {
					defer func() { herr, _ = recover().(*HandlerError) }()
					c.Separate(target, func(s *Session) {
						s.Call(func() { panic("boom") })
						Query(s, func() int { return n })
					})
				}()
				c.Separate(target, func(s *Session) {
					s.Call(func() { n++ })
					after = Query(s, func() int { return n })
				})
			})
			rt.Shutdown()
			if herr == nil || herr.Handler != "target" || herr.Value != "boom" {
				t.Fatalf("poisoned query raised %v, want *HandlerError on target with boom", herr)
			}
			if after != 1 {
				t.Errorf("next block's query saw %d, want 1", after)
			}
			if st := rt.Stats(); cfg.Workers == 1 && st.WorkerSpawns != 0 {
				t.Errorf("WorkerSpawns = %d on a pool of one, want 0 (every sync answered inline)", st.WorkerSpawns)
			}
		})
	}
}

// A packaged query (QueryRemote under ConfigQoQ) answered inline returns
// its value through the client's reply slot.
func TestInlineQueryRemoteUnderQoQ(t *testing.T) {
	rt := New(ConfigQoQ.WithWorkers(1))
	target := rt.NewHandler("target")
	n := 0 // owned by target
	const rounds = 100
	var sum int
	hosted(t, rt, func(c *Client) {
		for i := 0; i < rounds; i++ {
			c.Separate(target, func(s *Session) {
				s.Call(func() { n++ })
				sum += QueryRemote(s, func() int { return n })
			})
		}
	})
	rt.Shutdown()
	if want := rounds * (rounds + 1) / 2; sum != want {
		t.Errorf("sum of the queries' values = %d, want %d", sum, want)
	}
	st := rt.Stats()
	if st.RemoteQueries != rounds {
		t.Errorf("RemoteQueries = %d, want %d", st.RemoteQueries, rounds)
	}
	if st.WorkerSpawns != 0 {
		t.Errorf("WorkerSpawns = %d on a pool of one, want 0 (every query answered inline)", st.WorkerSpawns)
	}
}

// A hosted sync chain past the nesting bound completes on a pool of one:
// each hop's call runs the next hop and its sync waits for it, so inline
// Steps nest until maxInline, where the next sync parks and a
// compensation worker takes the chain on at depth 0.
func TestInlineSyncChainPastTheBound(t *testing.T) {
	depth := 3*(maxInline+1) + 2
	rt := New(pooledAll(1))
	hs := make([]*Handler, depth)
	for i := range hs {
		hs[i] = rt.NewHandler("link")
	}
	var reached atomic.Int64
	var hop func(i int)
	hop = func(i int) {
		reached.Add(1)
		if i == depth-1 {
			return
		}
		hs[i].AsClient().Separate(hs[i+1], func(s *Session) {
			s.Call(func() { hop(i + 1) })
			s.SyncNow()
		})
	}
	withinFor(t, 10*time.Second, "the chain", func() {
		rt.NewClient().Separate(hs[0], func(s *Session) {
			s.Call(func() { hop(0) })
			s.SyncNow()
		})
	})
	rt.Shutdown()
	if got := reached.Load(); got != int64(depth) {
		t.Errorf("%d links ran, want %d", got, depth)
	}
	if want := int64((depth - 1) / (maxInline + 1)); rt.Stats().WorkerSpawns < want {
		t.Errorf("WorkerSpawns = %d, want >= %d (one per hop past the bound)", rt.Stats().WorkerSpawns, want)
	}
}
