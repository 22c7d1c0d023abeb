package remote

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"scoopqs/internal/core"
	"scoopqs/internal/future"
)

// serverModes are the runtime shapes the server suite runs under: the
// default pool (GOMAXPROCS; the row keeps the "dedicated" label of the
// retired goroutine-per-activation mode so the subtests keep their
// names) and the two interesting explicit widths (Workers 1 forces
// maximal multiplexing, Workers 4 exercises the work-stealing
// substrate).
var serverModes = []struct {
	name string
	cfg  core.Config
}{
	{"dedicated", core.ConfigAll},
	{"pooled1", core.ConfigAll.WithWorkers(1)},
	{"pooled4", core.ConfigAll.WithWorkers(4)},
}

// startServer brings up a ConfigAll runtime with one exposed counter
// handler and a TCP listener on a random port.
func startServer(t *testing.T) (addr string, counter *int64, shutdown func()) {
	t.Helper()
	return startServerCfg(t, core.ConfigAll)
}

// startServerCfg is startServer under an arbitrary runtime config.
func startServerCfg(t *testing.T, cfg core.Config) (addr string, counter *int64, shutdown func()) {
	t.Helper()
	rt := core.New(cfg)
	h := rt.NewHandler("counter")
	var n int64
	srv := NewServer(rt)
	srv.Expose("counter", h, map[string]Proc{
		"add": func(a []int64) int64 { n += a[0]; return n },
		"get": func([]int64) int64 { return n },
		"boom": func([]int64) int64 {
			panic("remote boom")
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), &n, func() {
		srv.Close()
		rt.Shutdown()
	}
}

// dialSession dials a connection of its own carrying one logical
// client, for the tests that want clients on separate connections. The
// connection is closed with the test; the session's own Close only
// retires the channel.
func dialSession(t *testing.T, addr string) *RemoteSession {
	t.Helper()
	m, err := DialMux("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m.NewSession()
}

func TestRemoteCallAndQuery(t *testing.T) {
	for _, m := range serverModes {
		t.Run(m.name, func(t *testing.T) {
			addr, _, shutdown := startServerCfg(t, m.cfg)
			defer shutdown()

			c := dialSession(t, addr)
			defer c.Close()

			err := c.Separate("counter", func(s *Session) error {
				for i := int64(1); i <= 10; i++ {
					if err := s.Call("add", i); err != nil {
						return err
					}
				}
				// The query must observe all ten adds: 1+..+10 = 55.
				v, err := s.Query("get")
				if err != nil {
					return err
				}
				if v != 55 {
					t.Errorf("query saw %d, want 55", v)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRemoteNoInterleavingAcrossClients(t *testing.T) {
	for _, m := range serverModes {
		t.Run(m.name, func(t *testing.T) {
			addr, _, shutdown := startServerCfg(t, m.cfg)
			defer shutdown()

			// Many remote clients log add(1) x k then read; each must
			// see a value >= its own contribution and the final total
			// must be exact.
			const clients, k = 6, 50
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				c := dialSession(t, addr)
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer c.Close()
					err := c.Separate("counter", func(s *Session) error {
						before, err := s.Query("get")
						if err != nil {
							return err
						}
						for j := 0; j < k; j++ {
							if err := s.Call("add", 1); err != nil {
								return err
							}
						}
						after, err := s.Query("get")
						if err != nil {
							return err
						}
						// Within one block nobody else may interleave:
						// the delta must be exactly k.
						if after-before != k {
							t.Errorf("interleaving detected: delta %d, want %d", after-before, k)
						}
						return nil
					})
					if err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()

			c := dialSession(t, addr)
			defer c.Close()
			err := c.Separate("counter", func(s *Session) error {
				v, err := s.Query("get")
				if err != nil {
					return err
				}
				if v != clients*k {
					t.Errorf("final total %d, want %d", v, clients*k)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRemoteMuxNoInterleaving is the no-interleaving property with all
// the logical clients multiplexed on ONE connection: every client is a
// RemoteSession on the same Mux, so their blocks interleave on the
// wire but must not interleave on the handler.
func TestRemoteMuxNoInterleaving(t *testing.T) {
	for _, m := range serverModes {
		t.Run(m.name, func(t *testing.T) {
			addr, _, shutdown := startServerCfg(t, m.cfg)
			defer shutdown()

			mux, err := DialMux("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer mux.Close()

			const clients, k = 8, 50
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				rs := mux.NewSession()
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer rs.Close()
					err := rs.Separate("counter", func(s *Session) error {
						before, err := s.Query("get")
						if err != nil {
							return err
						}
						for j := 0; j < k; j++ {
							if err := s.Call("add", 1); err != nil {
								return err
							}
						}
						after, err := s.Query("get")
						if err != nil {
							return err
						}
						if after-before != k {
							t.Errorf("interleaving detected: delta %d, want %d", after-before, k)
						}
						return nil
					})
					if err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()

			final := mux.NewSession()
			err = final.Separate("counter", func(s *Session) error {
				v, err := s.Query("get")
				if err != nil {
					return err
				}
				if v != clients*k {
					t.Errorf("final total %d, want %d", v, clients*k)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Many sessions pipelining concurrently on one connection: per-session
// ordering must hold for every one of them.
func TestRemoteMuxConcurrentPipelines(t *testing.T) {
	rt := core.New(core.ConfigAll.WithWorkers(4))
	srv := NewServer(rt)
	const handlers = 16
	sums := make([]int64, handlers)
	for i := 0; i < handlers; i++ {
		i := i
		h := rt.NewHandler("h")
		srv.Expose(handlerName(i), h, map[string]Proc{
			"add": func(a []int64) int64 { sums[i] += a[0]; return sums[i] },
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		srv.Close()
		rt.Shutdown()
	}()

	mux, err := DialMux("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()

	const perClient = 200
	var wg sync.WaitGroup
	for i := 0; i < handlers; i++ {
		i := i
		rs := mux.NewSession()
		wg.Add(1)
		go func() {
			defer wg.Done()
			futs := make([]*future.Future, 0, perClient)
			err := rs.Separate(handlerName(i), func(s *Session) error {
				for j := 0; j < perClient; j++ {
					f, err := s.QueryAsync("add", 1)
					if err != nil {
						return err
					}
					futs = append(futs, f)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if err := rs.Flush(); err != nil {
				t.Error(err)
				return
			}
			// The handler is private to this session, so future j must
			// resolve to j+1: per-session FIFO survived the mux.
			for j, f := range futs {
				v, err := rs.Await(f)
				if err != nil {
					t.Error(err)
					return
				}
				if v != int64(j+1) {
					t.Errorf("session %d: pipelined query %d resolved to %d, want %d", i, j, v, j+1)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func handlerName(i int) string {
	return "h" + string(rune('a'+i/10)) + string(rune('0'+i%10))
}

func TestRemoteSync(t *testing.T) {
	addr, nptr, shutdown := startServer(t)
	defer shutdown()
	c := dialSession(t, addr)
	defer c.Close()
	err := c.Separate("counter", func(s *Session) error {
		if err := s.Call("add", 7); err != nil {
			return err
		}
		if err := s.Sync(); err != nil {
			return err
		}
		// After sync the handler has applied the call; reading the
		// variable directly from the test is safe only because this
		// block still excludes every other client.
		if *nptr != 7 {
			t.Errorf("after sync, n = %d, want 7", *nptr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRemoteUnknownHandler(t *testing.T) {
	addr, _, shutdown := startServer(t)
	defer shutdown()
	c := dialSession(t, addr)
	defer c.Close()
	// BEGIN is fire-and-forget now, so the failure surfaces at the
	// block's first synchronization point, not at Separate itself.
	err := c.Separate("nonesuch", func(s *Session) error {
		_, err := s.Query("get")
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "unknown handler") {
		t.Fatalf("err = %v, want unknown handler", err)
	}
	// The channel survives a failed block: a fresh block works.
	err = c.Separate("counter", func(s *Session) error {
		_, err := s.Query("get")
		return err
	})
	if err != nil {
		t.Fatalf("channel did not recover from a failed BEGIN: %v", err)
	}
}

// A fire-and-forget block (only CALLs, no query or sync) on an
// unknown handler must not lose its work silently: the server's id-0
// block-level ERROR surfaces at the enclosing Separate (if the report
// won the race) or at a later synchronization point of the channel.
func TestRemoteUnknownHandlerFireAndForgetSurfaces(t *testing.T) {
	addr, _, shutdown := startServer(t)
	defer shutdown()
	c := dialSession(t, addr)
	defer c.Close()
	err := c.Separate("nonesuch", func(s *Session) error {
		return s.Call("add", 1)
	})
	deadline := time.Now().Add(10 * time.Second)
	for err == nil && time.Now().Before(deadline) {
		// The id-0 ERROR races Separate's return; it must show up at a
		// subsequent synchronization point of the channel.
		err = c.Separate("counter", func(s *Session) error { return nil })
		if err == nil {
			err = c.Flush()
		}
	}
	if err == nil || !strings.Contains(err.Error(), "unknown handler") {
		t.Fatalf("err = %v, want unknown handler surfaced asynchronously", err)
	}
}

func TestRemoteUnknownProcedure(t *testing.T) {
	addr, _, shutdown := startServer(t)
	defer shutdown()
	c := dialSession(t, addr)
	defer c.Close()
	err := c.Separate("counter", func(s *Session) error {
		_, err := s.Query("frobnicate")
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "unknown procedure") {
		t.Fatalf("err = %v, want unknown procedure", err)
	}
}

// An unknown procedure in a call has no reply to carry the error, so
// it poisons the block: the next synchronization point reports it, and
// the following block is clean.
func TestRemoteUnknownCallPoisonsBlock(t *testing.T) {
	addr, nptr, shutdown := startServer(t)
	defer shutdown()
	c := dialSession(t, addr)
	defer c.Close()
	err := c.Separate("counter", func(s *Session) error {
		if err := s.Call("frobnicate", 1); err != nil {
			return err
		}
		if err := s.Call("add", 1); err != nil { // dropped: block poisoned
			return err
		}
		_, err := s.Query("get")
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "unknown procedure") {
		t.Fatalf("err = %v, want unknown procedure", err)
	}
	err = c.Separate("counter", func(s *Session) error {
		v, err := s.Query("get")
		if err != nil {
			return err
		}
		if v != 0 {
			t.Errorf("poisoned block leaked calls: n = %d, want 0", v)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("block after a poisoned one failed: %v", err)
	}
	_ = nptr
}

func TestRemoteQueryPanicSurfacesPooled(t *testing.T) {
	// Same scenario as TestRemoteQueryPanicSurfaces on a pooled
	// runtime: the panic must fail one query, not wedge a pool worker.
	addr, _, shutdown := startServerCfg(t, core.ConfigAll.WithWorkers(2))
	defer shutdown()
	c := dialSession(t, addr)
	defer c.Close()
	err := c.Separate("counter", func(s *Session) error {
		_, err := s.Query("boom")
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want handler panic surfaced", err)
	}
}

func TestRemoteQueryPanicSurfaces(t *testing.T) {
	addr, _, shutdown := startServer(t)
	defer shutdown()
	c := dialSession(t, addr)
	defer c.Close()
	err := c.Separate("counter", func(s *Session) error {
		_, err := s.Query("boom")
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want handler panic surfaced", err)
	}
	// The server and handler survive for the next client.
	c2 := dialSession(t, addr)
	defer c2.Close()
	err = c2.Separate("counter", func(s *Session) error {
		_, err := s.Query("get")
		return err
	})
	if err != nil {
		t.Fatalf("server did not survive a handler panic: %v", err)
	}
}

func TestRemoteClientDisconnectMidBlockReleasesHandler(t *testing.T) {
	addr, _, shutdown := startServer(t)
	defer shutdown()

	// Open a block, log a call, and vanish without END — raw frames,
	// since the real client always brackets blocks.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	buf = appendFrame(buf, &frame{kind: fBegin, ch: 1, name: "counter"})
	buf = appendFrame(buf, &frame{kind: fCallB, ch: 1, name: "add", data: ints(1)})
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// A new client must still be able to use the handler: the server
	// closes abandoned blocks.
	c2 := dialSession(t, addr)
	defer c2.Close()
	done := make(chan error, 1)
	go func() {
		done <- c2.Separate("counter", func(s *Session) error {
			_, err := s.Query("get")
			return err
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-timeoutC(t):
		t.Fatal("handler wedged by an abandoned remote block")
	}
}

// A RemoteSession closed mid-block must release the handler (the
// server ENDs the abandoned block) while the connection's other
// sessions keep working.
func TestRemoteChannelAbandonMidBlockReleasesHandler(t *testing.T) {
	for _, m := range serverModes {
		t.Run(m.name, func(t *testing.T) {
			addr, _, shutdown := startServerCfg(t, m.cfg)
			defer shutdown()

			mux, err := DialMux("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer mux.Close()

			// Open a block and abandon the channel without END. The
			// pending future must fail rather than hang.
			rs := mux.NewSession()
			var orphan *future.Future
			if err := rs.send(&frame{kind: fBegin, ch: rs.ch, name: "counter"}); err != nil {
				t.Fatal(err)
			}
			if orphan, err = (&Session{rs: rs}).QueryAsync("add", 1); err != nil {
				t.Fatal(err)
			}
			rs.Close()
			select {
			case <-orphan.Done():
			case <-timeoutC(t):
				t.Fatal("abandoned channel's future never resolved")
			}

			// A sibling session on the same connection can now reserve
			// the same handler: the server ENDed the abandoned block.
			rs2 := mux.NewSession()
			done := make(chan error, 1)
			go func() {
				done <- rs2.Separate("counter", func(s *Session) error {
					_, err := s.Query("get")
					return err
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-timeoutC(t):
				t.Fatal("handler wedged by an abandoned channel")
			}
		})
	}
}

// Server.Close with blocks open and queries in flight on several
// channels: the server must come down, the runtime must still shut
// down cleanly, and every client-side future must resolve (value or
// error) instead of hanging.
func TestRemoteServerCloseWithInFlightChannels(t *testing.T) {
	for _, m := range serverModes {
		t.Run(m.name, func(t *testing.T) {
			rt := core.New(m.cfg)
			h := rt.NewHandler("counter")
			var n int64
			srv := NewServer(rt)
			srv.Expose("counter", h, map[string]Proc{
				"add": func(a []int64) int64 { n += a[0]; return n },
			})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)

			mux, err := DialMux("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer mux.Close()

			const sessions, queries = 4, 64
			futs := make([]*future.Future, 0, sessions*queries)
			for i := 0; i < sessions; i++ {
				rs := mux.NewSession()
				// Blocks left open deliberately: Close must not need
				// cooperative ENDs.
				if err := rs.send(&frame{kind: fBegin, ch: rs.ch, name: "counter"}); err != nil {
					t.Fatal(err)
				}
				s := &Session{rs: rs}
				for j := 0; j < queries; j++ {
					f, err := s.QueryAsync("add", 1)
					if err != nil {
						t.Fatal(err)
					}
					futs = append(futs, f)
				}
			}

			srv.Close()
			rt.Shutdown()

			for i, f := range futs {
				select {
				case <-f.Done():
				case <-timeoutC(t):
					t.Fatalf("future %d still pending after server Close", i)
				}
			}
		})
	}
}

func timeoutC(t *testing.T) <-chan time.Time {
	t.Helper()
	// Generous on a loaded single-core box.
	return time.After(10 * time.Second)
}

func TestRemotePipelinedQueries(t *testing.T) {
	for _, m := range serverModes {
		t.Run(m.name, func(t *testing.T) {
			addr, _, shutdown := startServerCfg(t, m.cfg)
			defer shutdown()
			c := dialSession(t, addr)
			defer c.Close()

			const n = 100
			futs := make([]*future.Future, 0, n)
			err := c.Separate("counter", func(s *Session) error {
				for i := 0; i < n; i++ {
					f, err := s.QueryAsync("add", 1)
					if err != nil {
						return err
					}
					futs = append(futs, f)
				}
				// A synchronous query pipelines behind them and must
				// observe all n adds.
				v, err := s.Query("get")
				if err != nil {
					return err
				}
				if v != n {
					t.Errorf("sync query after %d pipelined adds saw %d", n, v)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			// Each pipelined add returned the running count: per-session
			// ordering means future i must resolve to i+1.
			for i, f := range futs {
				v, err := c.Await(f)
				if err != nil {
					t.Fatal(err)
				}
				if v != int64(i+1) {
					t.Fatalf("pipelined query %d resolved to %d, want %d (ordering broken)", i, v, i+1)
				}
			}
		})
	}
}

func TestRemotePipelinedErrors(t *testing.T) {
	addr, _, shutdown := startServer(t)
	defer shutdown()
	c := dialSession(t, addr)
	defer c.Close()

	var unknown, boom *future.Future
	err := c.Separate("counter", func(s *Session) error {
		var err error
		if unknown, err = s.QueryAsync("frobnicate"); err != nil {
			return err
		}
		if boom, err = s.QueryAsync("boom"); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Await(unknown); err == nil || !strings.Contains(err.Error(), "unknown procedure") {
		t.Fatalf("unknown-proc future resolved with %v", err)
	}
	if _, err := c.Await(boom); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking future resolved with %v", err)
	}
	// The panic poisoned that block only; a fresh block still works.
	err = c.Separate("counter", func(s *Session) error {
		_, err := s.Query("get")
		return err
	})
	if err != nil {
		t.Fatalf("server did not survive pipelined errors: %v", err)
	}
}

func TestRemoteCloseFailsPendingFutures(t *testing.T) {
	addr, _, shutdown := startServer(t)
	defer shutdown()
	c := dialSession(t, addr)
	var f *future.Future
	err := c.Separate("counter", func(s *Session) error {
		var err error
		f, err = s.QueryAsync("get")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case <-f.Done():
		// Resolved: either the reply raced the close (a value) or the
		// close failed it; both are fine — it must not stay pending.
	case <-timeoutC(t):
		t.Fatal("pending future not resolved by Close")
	}
}
