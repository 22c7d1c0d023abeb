package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// forEachConfig runs the test body under all five paper configurations,
// each with the default pool size and with the same size
// (Workers = GOMAXPROCS) set explicitly.
func forEachConfig(t *testing.T, body func(t *testing.T, cfg Config)) {
	t.Helper()
	for _, cfg := range Configs() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) { body(t, cfg) })
		pooled := cfg.WithWorkers(runtime.GOMAXPROCS(0))
		t.Run(pooled.Name(), func(t *testing.T) { body(t, pooled) })
	}
}

func TestConfigNames(t *testing.T) {
	want := []string{"None", "Dynamic", "Static", "QoQ", "All"}
	for i, cfg := range Configs() {
		if cfg.Name() != want[i] {
			t.Errorf("config %d name = %q, want %q", i, cfg.Name(), want[i])
		}
	}
}

func TestAsyncCallsExecuteInOrder(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		defer rt.Shutdown()
		h := rt.NewHandler("h")
		c := rt.NewClient()

		var log []int // handler-owned
		c.Separate(h, func(s *Session) {
			for i := 0; i < 100; i++ {
				i := i
				s.Call(func() { log = append(log, i) })
			}
			s.Sync()
		})
		c.Separate(h, func(s *Session) {
			got := Query(s, func() int { return len(log) })
			if got != 100 {
				t.Fatalf("len(log) = %d, want 100", got)
			}
		})
		rt.Shutdown()
		for i, v := range log {
			if v != i {
				t.Fatalf("log[%d] = %d: per-client program order violated", i, v)
			}
		}
	})
}

// Reasoning guarantee 2: calls from one separate block are contiguous in
// the handler's execution — no interleaving from other clients.
func TestNoInterleavingBetweenClients(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		defer rt.Shutdown()
		h := rt.NewHandler("h")

		type entry struct{ client, seq int }
		var log []entry // handler-owned

		const clients = 8
		const blocks = 20
		const callsPerBlock = 25
		var wg sync.WaitGroup
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				c := rt.NewClient()
				for b := 0; b < blocks; b++ {
					c.Separate(h, func(s *Session) {
						for k := 0; k < callsPerBlock; k++ {
							k := k
							s.Call(func() { log = append(log, entry{cl, k}) })
						}
					})
				}
			}(cl)
		}
		wg.Wait()
		rt.Shutdown()

		if len(log) != clients*blocks*callsPerBlock {
			t.Fatalf("log has %d entries, want %d", len(log), clients*blocks*callsPerBlock)
		}
		// The log must decompose into runs of callsPerBlock entries,
		// each run from a single client with seq 0..callsPerBlock-1.
		for i := 0; i < len(log); i += callsPerBlock {
			run := log[i : i+callsPerBlock]
			for k, e := range run {
				if e.client != run[0].client {
					t.Fatalf("run at %d interleaves clients %d and %d", i, run[0].client, e.client)
				}
				if e.seq != k {
					t.Fatalf("run at %d out of order: seq %d at position %d", i, e.seq, k)
				}
			}
		}
	})
}

// Fig. 1: with two clients each logging calls in one block, only the two
// non-interleaved orders may be observed.
func TestFig1OnlyTwoInterleavings(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		defer rt.Shutdown()
		h := rt.NewHandler("x")

		for round := 0; round < 50; round++ {
			var log []string
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				c := rt.NewClient()
				c.Separate(h, func(s *Session) {
					s.Call(func() { log = append(log, "foo") })
					s.Call(func() { log = append(log, "bar1") })
				})
			}()
			go func() {
				defer wg.Done()
				c := rt.NewClient()
				c.Separate(h, func(s *Session) {
					s.Call(func() { log = append(log, "bar2") })
					s.Call(func() { log = append(log, "baz") })
				})
			}()
			wg.Wait()
			// Drain the handler before reading log.
			c := rt.NewClient()
			c.Separate(h, func(s *Session) { s.SyncNow() })

			got := fmt.Sprint(log)
			w1 := fmt.Sprint([]string{"foo", "bar1", "bar2", "baz"})
			w2 := fmt.Sprint([]string{"bar2", "baz", "foo", "bar1"})
			if got != w1 && got != w2 {
				t.Fatalf("illegal interleaving: %v", log)
			}
		}
	})
}

func TestQueryReturnsValueAndSeesPriorCalls(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		defer rt.Shutdown()
		h := rt.NewHandler("h")
		c := rt.NewClient()

		counter := 0
		c.Separate(h, func(s *Session) {
			for i := 0; i < 10; i++ {
				s.Call(func() { counter++ })
			}
			// The query must observe all 10 prior calls applied.
			if got := Query(s, func() int { return counter }); got != 10 {
				t.Fatalf("query saw %d, want 10", got)
			}
			s.Call(func() { counter += 5 })
			if got := Query(s, func() int { return counter }); got != 15 {
				t.Fatalf("query saw %d, want 15", got)
			}
		})
	})
}

func TestQueryRemoteAlwaysRoundTrips(t *testing.T) {
	rt := New(ConfigAll)
	defer rt.Shutdown()
	h := rt.NewHandler("h")
	c := rt.NewClient()
	c.Separate(h, func(s *Session) {
		v := QueryRemote(s, func() string { return "hi" })
		if v != "hi" {
			t.Fatalf("got %q", v)
		}
	})
	if got := rt.Stats().RemoteQueries; got != 1 {
		t.Fatalf("RemoteQueries = %d, want 1", got)
	}
}

// Dynamic elision: consecutive queries without intervening async calls
// must perform exactly one sync round-trip.
func TestDynamicElisionSkipsRoundTrips(t *testing.T) {
	rt := New(ConfigDynamic)
	defer rt.Shutdown()
	h := rt.NewHandler("h")
	c := rt.NewClient()
	x := 42
	c.Separate(h, func(s *Session) {
		for i := 0; i < 100; i++ {
			if got := Query(s, func() int { return x }); got != 42 {
				t.Fatalf("query = %d", got)
			}
		}
	})
	st := rt.Stats()
	if st.SyncsPerformed != 1 {
		t.Errorf("SyncsPerformed = %d, want 1", st.SyncsPerformed)
	}
	if st.SyncsElided != 99 {
		t.Errorf("SyncsElided = %d, want 99", st.SyncsElided)
	}
}

// An async call must invalidate the synced state.
func TestAsyncCallInvalidatesSync(t *testing.T) {
	rt := New(ConfigDynamic)
	defer rt.Shutdown()
	h := rt.NewHandler("h")
	c := rt.NewClient()
	x := 0
	c.Separate(h, func(s *Session) {
		for i := 0; i < 10; i++ {
			s.Call(func() { x++ })
			if got := Query(s, func() int { return x }); got != i+1 {
				t.Fatalf("iteration %d: query = %d, want %d", i, got, i+1)
			}
		}
	})
	st := rt.Stats()
	if st.SyncsPerformed != 10 {
		t.Errorf("SyncsPerformed = %d, want 10 (async must desync)", st.SyncsPerformed)
	}
	if st.SyncsElided != 0 {
		t.Errorf("SyncsElided = %d, want 0", st.SyncsElided)
	}
}

// Under the pure Static configuration, generic Query pays a sync every
// time (no dynamic flag), while the hoisted SyncNow+LocalQuery path
// performs exactly one.
func TestStaticConfigSyncBehaviour(t *testing.T) {
	rt := New(ConfigStatic)
	defer rt.Shutdown()
	h := rt.NewHandler("h")
	c := rt.NewClient()
	x := 7
	c.Separate(h, func(s *Session) {
		for i := 0; i < 10; i++ {
			Query(s, func() int { return x })
		}
	})
	if got := rt.Stats().SyncsPerformed; got != 10 {
		t.Errorf("un-hoisted queries: SyncsPerformed = %d, want 10", got)
	}

	rt2 := New(ConfigStatic)
	defer rt2.Shutdown()
	h2 := rt2.NewHandler("h")
	c2 := rt2.NewClient()
	c2.Separate(h2, func(s *Session) {
		s.SyncNow()
		for i := 0; i < 10; i++ {
			LocalQuery(s, func() int { return x })
		}
	})
	st := rt2.Stats()
	if st.SyncsPerformed != 1 || st.LocalQueries != 10 {
		t.Errorf("hoisted path: SyncsPerformed=%d LocalQueries=%d, want 1 and 10",
			st.SyncsPerformed, st.LocalQueries)
	}
}

func TestLocalQueryOnUnsyncedPanics(t *testing.T) {
	rt := New(ConfigAll)
	defer rt.Shutdown()
	h := rt.NewHandler("h")
	c := rt.NewClient()
	c.Separate(h, func(s *Session) {
		s.Call(func() {}) // desync
		defer func() {
			if recover() == nil {
				t.Error("LocalQuery on unsynced session did not panic")
			}
		}()
		LocalQuery(s, func() int { return 1 })
	})
}

// Fig. 5: clients using multi-reservation see both objects with the
// same colour, under every configuration, and every handler runs the
// blocks in one order (§3.3: a multi-reservation enqueues on all its
// handlers atomically). Each block logs its id on x and on y; a
// reservation that interleaved with another group's leaves the logs
// in different orders.
func TestFig5MultiReservationConsistency(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		defer rt.Shutdown()
		x := rt.NewHandler("x")
		y := rt.NewHandler("y")
		var xc, yc string    // owned by x and y respectively
		var xlog, ylog []int // likewise

		const clients, blocks = 4, 1000
		var wg sync.WaitGroup
		setter := func(id int, colour string) {
			defer wg.Done()
			c := rt.NewClient()
			for i := 0; i < blocks; i++ {
				block := id*blocks + i
				c.SeparateMany([]*Handler{x, y}, func(ss []*Session) {
					ss[0].Call(func() { xc = colour; xlog = append(xlog, block) })
					ss[1].Call(func() { yc = colour; ylog = append(ylog, block) })
				})
			}
		}
		checker := func() {
			defer wg.Done()
			c := rt.NewClient()
			for i := 0; i < 100; i++ {
				c.SeparateMany([]*Handler{x, y}, func(ss []*Session) {
					cx := Query(ss[0], func() string { return xc })
					cy := Query(ss[1], func() string { return yc })
					if cx != cy {
						t.Errorf("observed x=%s y=%s: multi-reservation atomicity violated", cx, cy)
					}
				})
			}
		}
		wg.Add(clients + 1)
		for id := 0; id < clients; id++ {
			go setter(id, [...]string{"red", "blue"}[id%2])
		}
		go checker()
		wg.Wait()

		var xs, ys []int
		rt.NewClient().SeparateMany([]*Handler{x, y}, func(ss []*Session) {
			xs = Query(ss[0], func() []int { return append([]int(nil), xlog...) })
			ys = Query(ss[1], func() []int { return append([]int(nil), ylog...) })
		})
		if len(xs) != clients*blocks || !slices.Equal(xs, ys) {
			t.Errorf("x and y logged %d and %d blocks in different orders, want %d in one",
				len(xs), len(ys), clients*blocks)
		}
	})
}

// §2.5 / Fig. 6: inconsistent nested reservation order cannot deadlock
// under QoQ (no blocking reservations); under the lock-based runtime it
// deadlocks.
func TestFig6NestedReservationQoQNoDeadlock(t *testing.T) {
	rt := New(ConfigQoQ)
	defer rt.Shutdown()
	x := rt.NewHandler("x")
	y := rt.NewHandler("y")

	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			c := rt.NewClient()
			for i := 0; i < 200; i++ {
				c.Separate(x, func(sx *Session) {
					c.Separate(y, func(sy *Session) {
						sx.Call(func() {})
						sy.Call(func() {})
					})
				})
			}
		}()
		go func() {
			defer wg.Done()
			c := rt.NewClient()
			for i := 0; i < 200; i++ {
				c.Separate(y, func(sy *Session) {
					c.Separate(x, func(sx *Session) {
						sx.Call(func() {})
						sy.Call(func() {})
					})
				})
			}
		}()
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("QoQ nested reservations deadlocked; the paper says they cannot")
	}
}

func TestFig6NestedReservationLockBasedDeadlocks(t *testing.T) {
	rt := New(ConfigNone)
	// No Shutdown: the runtime will be wedged by design.
	x := rt.NewHandler("x")
	y := rt.NewHandler("y")

	step := make(chan struct{})
	done := make(chan struct{}, 2)
	go func() {
		c := rt.NewClient()
		c.Separate(x, func(*Session) {
			step <- struct{}{}
			<-step
			c.Separate(y, func(*Session) {})
		})
		done <- struct{}{}
	}()
	go func() {
		c := rt.NewClient()
		<-step // ensure client 1 holds x first
		c.Separate(y, func(*Session) {
			step <- struct{}{}
			c.Separate(x, func(*Session) {})
		})
		done <- struct{}{}
	}()
	select {
	case <-done:
		t.Fatal("lock-based nested reservation completed; expected deadlock")
	case <-time.After(300 * time.Millisecond):
		// Deadlocked as the original SCOOP semantics predict. Leak the
		// two goroutines; the runtime is abandoned.
	}
}

func TestSeparateWhenWaitsForGuard(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		defer rt.Shutdown()
		h := rt.NewHandler("box")
		ready := false // handler-owned

		got := make(chan bool, 1)
		go func() {
			c := rt.NewClient()
			c.SeparateWhen([]*Handler{h},
				func(ss []*Session) bool { return Query(ss[0], func() bool { return ready }) },
				func(ss []*Session) { got <- Query(ss[0], func() bool { return ready }) })
		}()

		time.Sleep(20 * time.Millisecond)
		select {
		case <-got:
			t.Fatal("SeparateWhen ran body before guard held")
		default:
		}

		c := rt.NewClient()
		c.Separate(h, func(s *Session) { s.Call(func() { ready = true }) })

		select {
		case v := <-got:
			if !v {
				t.Fatal("body observed guard false")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("SeparateWhen never woke after state change")
		}
	})
}

func TestSeparateWhenManyWaiters(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		defer rt.Shutdown()
		h := rt.NewHandler("q")
		var items []int // handler-owned

		const n = 50
		var wg sync.WaitGroup
		sum := make(chan int, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := rt.NewClient()
				c.SeparateWhen([]*Handler{h},
					func(ss []*Session) bool {
						return Query(ss[0], func() bool { return len(items) > 0 })
					},
					func(ss []*Session) {
						v := Query(ss[0], func() int {
							v := items[len(items)-1]
							items = items[:len(items)-1]
							return v
						})
						sum <- v
					})
			}()
		}
		prod := rt.NewClient()
		for i := 1; i <= n; i++ {
			i := i
			prod.Separate(h, func(s *Session) { s.Call(func() { items = append(items, i) }) })
		}
		wg.Wait()
		close(sum)
		total := 0
		for v := range sum {
			total += v
		}
		if want := n * (n + 1) / 2; total != want {
			t.Fatalf("consumed sum = %d, want %d", total, want)
		}
	})
}

func TestHandlerPanicPropagatesToClient(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		defer rt.Shutdown()
		h := rt.NewHandler("boom")
		c := rt.NewClient()

		ran := false
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = r.(*HandlerError)
				}
			}()
			c.Separate(h, func(s *Session) {
				s.Call(func() { panic("kaboom") })
				s.Call(func() { ran = true }) // must be skipped: poisoned
				s.SyncNow()                   // surfaces the panic
			})
			return nil
		}()
		if err == nil {
			t.Fatal("handler panic was not surfaced at sync point")
		}
		he, ok := err.(*HandlerError)
		if !ok || he.Handler != "boom" || he.Value != "kaboom" {
			t.Fatalf("unexpected error: %#v", err)
		}
		if ran {
			t.Fatal("call after panic executed; session should be poisoned")
		}
		// The handler itself must survive and serve new blocks.
		v := 0
		c.Separate(h, func(s *Session) {
			s.Call(func() { v = 9 })
			s.SyncNow()
		})
		if v != 9 {
			t.Fatal("handler did not survive a poisoned session")
		}
	})
}

// A panic poisons its own block, not the cached session. The second
// block reuses the session while the handler is still held inside the
// first, so the first block's panic lands after the reuse; the second
// block must see none of it.
func TestPoisonEndsWithItsBlock(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		defer rt.Shutdown()
		h := rt.NewHandler("h")
		c := rt.NewClient()
		gate := make(chan struct{})
		c.Separate(h, func(s *Session) {
			s.Call(func() { <-gate })
			s.Call(func() { panic("kaboom") })
		})
		v := 0
		c.Separate(h, func(s *Session) {
			close(gate)
			s.Call(func() { v = 9 })
			s.SyncNow()
		})
		if v != 9 {
			t.Fatal("the next block's call was skipped: the poison outlived its block")
		}
	})
}

func TestQueryPanicPropagates(t *testing.T) {
	for _, cfg := range []Config{ConfigNone, ConfigAll} {
		rt := New(cfg)
		h := rt.NewHandler("h")
		c := rt.NewClient()
		var got error
		c.Separate(h, func(s *Session) {
			defer func() {
				if r := recover(); r != nil {
					got = r.(*HandlerError)
				}
			}()
			QueryRemote(s, func() int { panic("qboom") })
		})
		if got == nil {
			t.Fatalf("%s: query panic not propagated", cfg.Name())
		}
		rt.Shutdown()
	}
}

func TestSessionReuseAcrossBlocks(t *testing.T) {
	rt := New(ConfigAll)
	defer rt.Shutdown()
	h := rt.NewHandler("h")
	c := rt.NewClient()
	for i := 0; i < 100; i++ {
		c.Separate(h, func(s *Session) {
			s.Call(func() {})
			s.SyncNow() // forces the handler to finish before block end
		})
	}
	st := rt.Stats()
	if st.SessionsReused == 0 {
		t.Errorf("no sessions were reused: new=%d reused=%d", st.SessionsNew, st.SessionsReused)
	}
}

// One client with two blocks open on a handler at once — the shape of
// the remote server's connection reader, whose one client serves every
// channel — needs two private queues, and keeps them: the second
// TryReserve finds the cached session mid-block and takes (or, the
// first time, chains) another, and once both blocks have ended the
// next pair reuses the same two. The blocks run whole, in reservation
// order.
func TestOverlappingBlocksReuseIdleSessions(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rt := New(ConfigAll.WithWorkers(workers))
			defer rt.Shutdown()
			h := rt.NewHandler("h")
			var log []int // owned by h
			one := func() { log = append(log, 1) }
			two := func() { log = append(log, 2) }
			c := rt.NewClient()
			const pairs = 1000
			for i := 0; i < pairs; i++ {
				a, err := c.TryReserve(h)
				if err != nil {
					t.Fatal(err)
				}
				b, err := c.TryReserve(h)
				if err != nil {
					t.Fatal(err)
				}
				if a == b {
					t.Fatal("two open blocks share one session")
				}
				b.Call(two)
				a.Call(one)
				a.Call(one)
				b.Call(two)
				c.End(a)
				c.End(b)
			}
			var got []int
			c.Separate(h, func(s *Session) { got = Query(s, func() []int { return log }) })
			if len(got) != 4*pairs {
				t.Fatalf("%d calls ran, want %d", len(got), 4*pairs)
			}
			for i := 0; i < len(got); i += 4 {
				if got[i] != 1 || got[i+1] != 1 || got[i+2] != 2 || got[i+3] != 2 {
					t.Fatalf("pair %d ran %v, want [1 1 2 2]: the first reservation's block whole, then the second's", i/4, got[i:i+4])
				}
			}
			if st := rt.Stats(); st.SessionsNew != 2 {
				t.Fatalf("SessionsNew = %d, want 2 (one per block open at once)", st.SessionsNew)
			}
		})
	}
}

// A client alternating blocks on two handlers makes two sessions and
// one map: the first handler it reserves stays in its one-session slot,
// and the second is the map's one entry, made at its first block and
// never remade. The reservation counts reach Stats at each block's end,
// so they are exact once the blocks have ended.
func TestSessionSlotAlternatingHandlers(t *testing.T) {
	rt := New(ConfigAll)
	defer rt.Shutdown()
	h1, h2 := rt.NewHandler("h1"), rt.NewHandler("h2")
	c := rt.NewClient()
	const rounds = 100
	var m unsafe.Pointer
	for i := 0; i < rounds; i++ {
		c.Separate(h1, func(s *Session) { s.Call(func() {}) })
		if i == 0 && c.cache != nil {
			t.Fatal("a client with one handler made its map")
		}
		c.Separate(h2, func(s *Session) { s.Call(func() {}) })
		if p := reflect.ValueOf(c.cache).UnsafePointer(); i == 0 {
			m = p
		} else if p != m {
			t.Fatalf("round %d remade the map", i)
		}
	}
	if c.slot == nil || c.slot.h != h1 || len(c.cache) != 1 || c.cache[h2] == nil {
		t.Fatalf("slot on %v, map of %d: want h1 in the slot and h2 the map's one entry", c.slot, len(c.cache))
	}
	st := rt.Stats()
	if st.SessionsNew != 2 || st.SessionsReused != 2*rounds-2 || st.Reservations != 2*rounds {
		t.Fatalf("SessionsNew = %d, SessionsReused = %d, Reservations = %d; want 2, %d and %d",
			st.SessionsNew, st.SessionsReused, st.Reservations, 2*rounds-2, 2*rounds)
	}
}

// Overlapping blocks on the handler in a client's slot chain through
// Session.next as on any other: a second open block chains a second
// session, a reservation skips a session that is idle but still
// poisoned, and once the handler has passed the poisoned block's END
// that session, the slot's, is the first one reused.
func TestSessionSlotChainsOverlappingBlocks(t *testing.T) {
	rt := New(ConfigAll)
	defer rt.Shutdown()
	h, other := rt.NewHandler("h"), rt.NewHandler("other")
	c := rt.NewClient()
	reserve := func(h *Handler) *Session {
		s, err := c.TryReserve(h)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := reserve(h), reserve(h)
	if c.slot != a || a.next != b || c.cache != nil {
		t.Fatal("two open blocks on the first handler: want the slot's session and one chained behind it, no map")
	}
	// h runs a's block first: poison it, then hold h inside it after its
	// END is logged, so a is idle but poisoned.
	reached, gate := make(chan struct{}), make(chan struct{})
	a.Call(func() { panic("boom") })
	a.CallAlways(func() {
		close(reached)
		<-gate
	})
	c.End(a)
	c.End(b)
	within(t, "the poisoned block", func() { <-reached })
	if s := reserve(h); s != b {
		t.Error("a reservation took the poisoned session or a fresh one over the idle, clean one")
	} else if s2 := reserve(h); s2 == a || s2 == b {
		t.Error("a second open block did not chain a fresh session past the poisoned one")
	} else {
		c.End(s)
		c.End(s2)
	}
	close(gate)
	c.End(reserve(other))
	settle(t, "h passing the blocks' ENDs", func() bool { return rt.Stats().EndsProcessed == 5 })
	if s := reserve(h); s != a || s.Err() != nil {
		t.Error("once h passed its END the slot's session was not reused clean")
	} else {
		c.End(s)
	}
	if st := rt.Stats(); st.SessionsNew != 4 || len(c.cache) != 1 {
		t.Fatalf("SessionsNew = %d, map of %d; want 4 (three on h, one on other) and other's one entry", st.SessionsNew, len(c.cache))
	}
}

func TestMultiReservationDeduplicates(t *testing.T) {
	rt := New(ConfigAll)
	defer rt.Shutdown()
	h := rt.NewHandler("h")
	c := rt.NewClient()
	c.SeparateMany([]*Handler{h, h, h}, func(ss []*Session) {
		if len(ss) != 1 {
			t.Fatalf("got %d sessions for duplicated handler, want 1", len(ss))
		}
	})
}

func TestHandlerAsClient(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		defer rt.Shutdown()
		a := rt.NewHandler("a")
		b := rt.NewHandler("b")
		hits := 0 // owned by b

		c := rt.NewClient()
		c.Separate(a, func(s *Session) {
			s.Call(func() {
				// Running on handler a; delegate to b.
				a.AsClient().Separate(b, func(sb *Session) {
					sb.Call(func() { hits++ })
				})
			})
			s.SyncNow()
		})
		c.Separate(b, func(s *Session) {
			if got := Query(s, func() int { return hits }); got != 1 {
				t.Fatalf("hits = %d, want 1", got)
			}
		})
	})
}

func TestShutdownIdempotent(t *testing.T) {
	rt := New(ConfigAll)
	rt.NewHandler("h")
	rt.Shutdown()
	rt.Shutdown() // must not panic or hang
}

func TestStatsSnapshot(t *testing.T) {
	rt := New(ConfigAll)
	defer rt.Shutdown()
	h := rt.NewHandler("h")
	c := rt.NewClient()
	c.Separate(h, func(s *Session) {
		s.Call(func() {})
		Query(s, func() int { return 0 })
	})
	st := rt.Stats()
	if st.AsyncCalls != 1 || st.Reservations != 1 || st.SyncsPerformed != 1 || st.LocalQueries != 1 {
		t.Errorf("unexpected stats: %+v", st)
	}
}

// TestClientParkAnsweredOnce interleaves every wait of one client on its
// one parker — syncs and packaged queries on two handlers, a packaged
// query that panics, a guard its handler evaluates and a two-handler
// guard it evaluates itself — while a second client keeps flipping the
// guarded state. Each park must be answered by exactly one Unpark: a
// stray one lets a later Sync return before the calls it follows have
// run, or a packaged query return the previous reply (or none), and a
// lost one hangs the client.
func TestClientParkAnsweredOnce(t *testing.T) {
	const rounds = 200
	for _, base := range []Config{ConfigAll, ConfigNone} {
		for _, workers := range []int{0, 1, 2} {
			cfg := base.WithWorkers(workers)
			t.Run(cfg.Name(), func(t *testing.T) {
				rt := New(cfg)
				defer rt.Shutdown()
				a, b := rt.NewHandler("a"), rt.NewHandler("b")
				hs, both := [2]*Handler{a, b}, []*Handler{a, b}
				var counts [2]int // counts[i] owned by hs[i]
				flag := false     // owned by a
				stop := make(chan struct{})
				flipped := make(chan struct{})
				go func() {
					defer close(flipped)
					c := rt.NewClient()
					flip := func() { flag = !flag }
					for {
						select {
						case <-stop:
							return
						default:
						}
						c.Separate(a, func(s *Session) { s.Call(flip) })
						runtime.Gosched()
					}
				}()
				within(t, "the client's rounds", func() {
					defer close(stop)
					c := rt.NewClient()
					var want [2]int
					for i := range rounds {
						k := i % 2
						h, n := hs[k], &counts[k]
						inc := func() { *n++ }
						c.Separate(h, func(s *Session) {
							s.Call(inc)
							want[k]++
							s.Sync()
							if got := LocalQuery(s, func() int { return *n }); got != want[k] {
								t.Errorf("round %d: Sync returned with %d calls run on %s, want %d", i, got, h.name, want[k])
							}
							s.Call(inc)
							want[k]++
							if got := QueryRemote(s, func() int { return 1000*i + *n }); got != 1000*i+want[k] {
								t.Errorf("round %d: packaged query on %s = %d, want %d", i, h.name, got, 1000*i+want[k])
							}
						})
						func() {
							defer func() {
								if he, ok := recover().(*HandlerError); !ok || he.Value != i {
									t.Errorf("round %d: a panicking packaged query raised %v, want its own *HandlerError", i, he)
								}
							}()
							c.Separate(h, func(s *Session) {
								QueryRemote(s, func() int { panic(i) })
							})
						}()
						parity := i%3 == 0
						holds := func() bool { return flag == parity }
						c.SeparateWhen([]*Handler{a}, func(ss []*Session) bool {
							return Query(ss[0], holds)
						}, func(ss []*Session) {
							if got := QueryRemote(ss[0], holds); !got {
								t.Errorf("round %d: one-handler guard body started in a state its guard rejects", i)
							}
						})
						c.SeparateWhen(both, func(ss []*Session) bool {
							return Query(ss[0], holds) && Query(ss[1], func() int { return counts[1] }) == want[1]
						}, func(ss []*Session) {
							ss[1].Call(func() { counts[1]++ })
							want[1]++
							if got := QueryRemote(ss[0], holds); !got {
								t.Errorf("round %d: two-handler guard body started in a state its guard rejects", i)
							}
							if got := QueryRemote(ss[1], func() int { return 1000*i + counts[1] }); got != 1000*i+want[1] {
								t.Errorf("round %d: packaged query on b = %d, want %d", i, got, 1000*i+want[1])
							}
						})
					}
				})
				within(t, "the flipper", func() { <-flipped })
			})
		}
	}
}
