package core

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"
	"weak"
)

// The packaged query (QueryRemote, Fig. 10a): the caller's closure is the
// package. It rides the client's query slot to the handler, and the reply
// rides the slot beside it back; the call record carries neither. CI runs
// these (pattern Packaged|QueryRemote) under -race at GOMAXPROCS 1, 2
// and 4.

// TestQueryRemoteAllocs pins the runtime's share of a packaged query:
// none. With the query closure made once and a pointer-shaped result,
// which boxes into any without an allocation, a QueryRemote on a warm
// session allocates nothing; a closure wrapping the caller's in a
// func() any cost one allocation per query.
func TestQueryRemoteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool Puts at random; counts are pinned for the non-race build")
	}
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rt := New(ConfigQoQ.WithWorkers(workers))
			defer rt.Shutdown()
			h := rt.NewHandler("h")
			c := rt.NewClient()
			s, err := c.TryReserve(h)
			if err != nil {
				t.Fatal(err)
			}
			defer c.End(s)
			x := new(int) // owned by h
			q := func() *int { return x }
			one := func() {
				if QueryRemote(s, q) != x {
					t.Fatal("QueryRemote returned another pointer")
				}
			}
			for range 1000 {
				one()
			}
			if got := testing.AllocsPerRun(2000, one); got != 0 {
				t.Errorf("a hoisted QueryRemote = %v allocs, want 0", got)
			}
		})
	}
}

// TestPackagedQueryKeepsNothing: once a packaged query has returned, its
// client holds neither the query closure nor the reply, whether the query
// answered, panicked, or met a poisoned session. The closure captures the
// only pointer to a fresh object and a normal query returns it, so a
// weak pointer to it goes nil at the next collection unless the client's
// slot still reaches it. The check runs mid-block, with the handler
// pinned on the session.
func TestPackagedQueryKeepsNothing(t *testing.T) {
	rt := New(ConfigQoQ.WithWorkers(2))
	defer rt.Shutdown()
	h := rt.NewHandler("h")
	c := rt.NewClient()
	for _, tc := range []struct {
		name             string
		poisoned, panics bool
	}{
		{"answered", false, false},
		{"panicking", false, true},
		{"poisoned", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c.Separate(h, func(s *Session) {
				if tc.poisoned {
					s.Call(func() { panic("poison") })
				}
				wp, r := packagedQuery(s, tc.panics)
				if failed := r != nil; failed != (tc.panics || tc.poisoned) {
					t.Fatalf("the query raised %v", r)
				}
				runtime.GC()
				if wp.Value() != nil {
					t.Error("the client keeps the packaged query or its reply alive")
				}
			})
		})
	}
}

// packagedQuery runs one QueryRemote on s whose closure captures the
// only pointer to a fresh object and returns it (or panics, if panics),
// and returns a weak pointer to the object and what the query raised.
func packagedQuery(s *Session, panics bool) (wp weak.Pointer[[64]byte], raised any) {
	p := new([64]byte)
	wp = weak.Make(p)
	defer func() { raised = recover() }()
	if QueryRemote(s, func() *[64]byte {
		if panics {
			panic("boom")
		}
		return p
	}) != p {
		panic("QueryRemote returned another pointer")
	}
	return wp, nil
}

// TestPackagedQueriesAcrossSessions: one client alternates packaged
// queries of two result types over a two-handler block, each answered on
// its own session from its own handler's state, on pools of one and two
// workers; then a client hosted by a third handler does the same, its
// queries run inline where the target is still in its worker's next
// slot. Every query reads the value its session's last call wrote, and
// each is counted once in RemoteQueries and never in SyncsPerformed.
func TestPackagedQueriesAcrossSessions(t *testing.T) {
	const rounds = 200
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rt := New(ConfigQoQ.WithWorkers(workers))
			a, b := rt.NewHandler("a"), rt.NewHandler("b")
			na, nb := 0, 0 // owned by a and b
			// alternate runs rounds more of the queries after the first
			// done of them.
			alternate := func(c *Client, done int) {
				c.SeparateMany([]*Handler{b, a}, func(ss []*Session) {
					sa, sb := ss[0], ss[1]
					for i := done + 1; i <= done+rounds; i++ {
						sa.Call(func() { na++ })
						sb.Call(func() { nb += 2 })
						if got := QueryRemote(sa, func() int { return na }); got != i {
							t.Errorf("a's query read %d, want %d", got, i)
						}
						if got := QueryRemote(sb, func() string { return strconv.Itoa(nb) }); got != strconv.Itoa(2*i) {
							t.Errorf("b's query read %s, want %d", got, 2*i)
						}
					}
				})
			}
			withinFor(t, 10*time.Second, "the client", func() { alternate(rt.NewClient(), 0) })
			hosted(t, rt, func(c *Client) { alternate(c, rounds) })
			rt.Shutdown()
			st := rt.Stats()
			if st.RemoteQueries != 2*2*rounds || st.SyncsPerformed != 0 {
				t.Errorf("RemoteQueries = %d, SyncsPerformed = %d; want %d and 0",
					st.RemoteQueries, st.SyncsPerformed, 2*2*rounds)
			}
		})
	}
}

// TestQueryRemoteOfNilInterface: a packaged query whose result type is an
// interface may return nil, which boxes to a nil any on its way back and
// must come back as T's zero rather than fail the type assertion.
func TestQueryRemoteOfNilInterface(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		defer rt.Shutdown()
		h := rt.NewHandler("h")
		rt.NewClient().Separate(h, func(s *Session) {
			if err := QueryRemote(s, func() error { return nil }); err != nil {
				t.Errorf("QueryRemote of a nil error = %v, want nil", err)
			}
			if err := Query(s, func() error { return nil }); err != nil {
				t.Errorf("Query of a nil error = %v, want nil", err)
			}
		})
	})
}
