package core

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// §2.5: QoQ excludes reservation deadlocks, but adding queries (which
// block) reintroduces deadlock: two handlers each executing a call that
// queries the other wait forever. This test documents that boundary;
// the wedged runtime is abandoned.
func TestQueryCycleStillDeadlocksUnderQoQ(t *testing.T) {
	rt := New(ConfigQoQ) // no Shutdown: wedged by design
	a := rt.NewHandler("a")
	b := rt.NewHandler("b")

	done := make(chan struct{})
	// Each call waits for the other to have started before it queries,
	// or a's could finish before b's begins and no cycle would form.
	var started sync.WaitGroup
	started.Add(2)
	go func() {
		c := rt.NewClient()
		// Log a call on a that queries b, and a call on b that queries
		// a. Each handler blocks inside queryRemote waiting for the
		// other, which is busy waiting in turn: a cycle of waits.
		c.Separate(a, func(s *Session) {
			s.Call(func() {
				started.Done()
				started.Wait()
				a.AsClient().Separate(b, func(sb *Session) {
					QueryRemote(sb, func() int { return 1 })
				})
			})
		})
		c.Separate(b, func(s *Session) {
			s.Call(func() {
				started.Done()
				started.Wait()
				b.AsClient().Separate(a, func(sa *Session) {
					QueryRemote(sa, func() int { return 1 })
				})
			})
		})
		// Wait for both handlers to finish — they never will.
		c.Separate(a, func(s *Session) { s.SyncNow() })
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("query cycle completed; expected deadlock per §2.5")
	case <-time.After(300 * time.Millisecond):
		// Deadlocked, as the paper says queries can.
	}
}

// SeparateWhen with a guard spanning two handlers: move an item from a
// source to a sink only when the source is non-empty and the sink has
// room — both conditions must hold atomically.
func TestSeparateWhenMultiHandlerGuard(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		rt := New(cfg)
		defer rt.Shutdown()
		src := rt.NewHandler("src")
		dst := rt.NewHandler("dst")
		var srcItems []int // owned by src
		var dstItems []int // owned by dst
		const cap = 3
		const total = 12

		// Mover goroutine: waits for (src non-empty && dst below cap).
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := rt.NewClient()
			hs := []*Handler{src, dst}
			for moved := 0; moved < total; moved++ {
				c.SeparateWhen(hs,
					func(ss []*Session) bool {
						var nonEmpty, hasRoom bool
						for _, s := range ss {
							s := s
							switch s.Handler() {
							case src:
								nonEmpty = Query(s, func() bool { return len(srcItems) > 0 })
							case dst:
								hasRoom = Query(s, func() bool { return len(dstItems) < cap })
							}
						}
						return nonEmpty && hasRoom
					},
					func(ss []*Session) {
						var v int
						for _, s := range ss {
							if s.Handler() == src {
								v = Query(s, func() int {
									v := srcItems[0]
									srcItems = srcItems[1:]
									return v
								})
							}
						}
						for _, s := range ss {
							s := s
							if s.Handler() == dst {
								s.Call(func() { dstItems = append(dstItems, v) })
							}
						}
					})
			}
		}()

		// Producer fills src; drainer empties dst (so room reappears).
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := rt.NewClient()
			for i := 1; i <= total; i++ {
				i := i
				c.Separate(src, func(s *Session) { s.Call(func() { srcItems = append(srcItems, i) }) })
			}
		}()
		drained := make([]int, 0, total)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := rt.NewClient()
			hs := []*Handler{dst}
			for len(drained) < total {
				c.SeparateWhen(hs,
					func(ss []*Session) bool { return Query(ss[0], func() bool { return len(dstItems) > 0 }) },
					func(ss []*Session) {
						v := Query(ss[0], func() int {
							v := dstItems[0]
							dstItems = dstItems[1:]
							return v
						})
						drained = append(drained, v)
					})
			}
		}()
		wg.Wait()
		for i, v := range drained {
			if v != i+1 {
				t.Fatalf("drained[%d] = %d; FIFO through two handlers broken", i, v)
			}
		}
	})
}

// Property: any sequence of client operations on a counter handler
// produces the same result as the sequential model — across all
// configurations.
func TestQuickCounterMatchesSequentialModel(t *testing.T) {
	for _, cfg := range Configs() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			f := func(ops []uint8) bool {
				rt := New(cfg)
				defer rt.Shutdown()
				h := rt.NewHandler("h")
				c := rt.NewClient()
				got, want := 0, 0
				c.Separate(h, func(s *Session) {
					for _, op := range ops {
						delta := int(op%7) - 3
						switch op % 3 {
						case 0:
							s.Call(func() { got += delta })
							want += delta
						case 1:
							if Query(s, func() int { return got }) != want {
								panic("query mismatch")
							}
						case 2:
							s.Sync()
						}
					}
				})
				c.Separate(h, func(s *Session) {
					if QueryRemote(s, func() int { return got }) != want {
						panic("final mismatch")
					}
				})
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTryReserveEnd(t *testing.T) {
	rt := New(ConfigAll)
	defer rt.Shutdown()
	h := rt.NewHandler("h")
	c := rt.NewClient()
	n := 0
	s, err := c.TryReserve(h)
	if err != nil {
		t.Fatal(err)
	}
	s.Call(func() { n++ })
	c.End(s)
	// The ended session is the client's cached queue again: the next
	// block reuses it and observes the first block's call.
	c.Separate(h, func(s2 *Session) {
		if s2 != s {
			t.Fatal("block after End did not reuse the cached session")
		}
		if got := Query(s2, func() int { return n }); got != 1 {
			t.Fatalf("n = %d, want 1", got)
		}
	})
	rt.Shutdown()
	if _, err := c.TryReserve(h); err != ErrShutdown {
		t.Fatalf("TryReserve after Shutdown = %v, want ErrShutdown", err)
	}
}

func TestReserveLockBasedHoldsHandler(t *testing.T) {
	rt := New(ConfigNone)
	defer rt.Shutdown()
	h := rt.NewHandler("h")
	c := rt.NewClient()
	s, err := c.TryReserve(h)
	if err != nil {
		t.Fatal(err)
	}
	s.Call(func() {})

	blocked := make(chan struct{})
	go func() {
		c2 := rt.NewClient()
		c2.Separate(h, func(*Session) {})
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("lock-based reservation did not exclude the second client")
	case <-time.After(50 * time.Millisecond):
	}
	c.End(s)
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("End did not let the second client in")
	}
}

func TestCustomConfigName(t *testing.T) {
	odd := Config{QoQ: true, DynElide: true}
	if got := odd.Name(); got == "All" || got == "QoQ" {
		t.Fatalf("unexpected canonical name %q for a mixed config", got)
	}
}

func TestHandlerAccessors(t *testing.T) {
	rt := New(ConfigAll)
	defer rt.Shutdown()
	a := rt.NewHandler("alpha")
	b := rt.NewHandler("beta")
	if a.Name() != "alpha" || b.Name() != "beta" {
		t.Error("Name mismatch")
	}
	if a.ID() >= b.ID() {
		t.Error("IDs must be increasing with creation order")
	}
	hs := rt.Handlers()
	if len(hs) != 2 || hs[0] != a || hs[1] != b {
		t.Error("Handlers() should list in creation order")
	}
	c := rt.NewClient()
	c.Separate(a, func(s *Session) {
		if s.Handler() != a {
			t.Error("Session.Handler mismatch")
		}
		if s.Synced() {
			t.Error("fresh session should not be synced")
		}
		s.SyncNow()
		if !s.Synced() {
			t.Error("session should be synced after SyncNow")
		}
	})
	if c.Runtime() != rt {
		t.Error("Client.Runtime mismatch")
	}
}

func TestSessionErrNilOnHealthySession(t *testing.T) {
	rt := New(ConfigAll)
	defer rt.Shutdown()
	h := rt.NewHandler("h")
	c := rt.NewClient()
	c.Separate(h, func(s *Session) {
		s.Call(func() {})
		s.SyncNow()
		if s.Err() != nil {
			t.Errorf("Err = %v on healthy session", s.Err())
		}
	})
}

func TestNewHandlerAfterShutdownPanics(t *testing.T) {
	rt := New(ConfigAll)
	rt.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rt.NewHandler("late")
}
