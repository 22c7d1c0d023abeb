package remote

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"scoopqs/internal/chaos"
	"scoopqs/internal/core"
	"scoopqs/internal/future"
)

// The chaos sweep's fixed shape: two victim and two survivor logical
// clients, each with its own handler-owned counter, so every run checks
// end-to-end correctness (final counter values) next to the fault
// assertions.
const (
	chaosVictims    = 2
	chaosSurvivors  = 2
	chaosPerSession = 256 // pipelined queries per session

	// chaosSeed seeds scenario i's fault PRNGs with chaosSeed+i; a
	// failure prints the seed it ran under, and editing this constant
	// replays or widens the sweep.
	chaosSeed = 1

	chaosIdleTimeout  = 150 * time.Millisecond
	chaosAwaitTimeout = 60 * time.Second
)

// chaosScenario is one fault profile plus what it must provoke.
type chaosScenario struct {
	p       chaos.Profile // transport faults on the victim connection; p.Name labels the scenario
	lethal  bool          // the victim connection is expected to die
	abuse   bool          // raw credit-ignoring flood instead of a mux victim
	silence bool          // open a block, then go silent (idle-deadline prey)
}

// chaosScenarios is the sweep: every fault the chaos package can
// inject plus the two protocol-level misbehaviors.
var chaosScenarios = []chaosScenario{
	{p: chaos.Profile{Name: "baseline"}},
	{p: chaos.Profile{Name: "latency", LatencyMin: 20 * time.Microsecond, LatencyMax: 200 * time.Microsecond}},
	// StallEvery is small because the batching writer coalesces the
	// whole pipelined burst into a handful of flushes.
	{p: chaos.Profile{Name: "stall", StallEvery: 2, StallDur: 2 * time.Millisecond}},
	{p: chaos.Profile{Name: "partial", ChunkMax: 7}},
	{p: chaos.Profile{Name: "truncate", TruncateAfter: 4096}, lethal: true},
	{p: chaos.Profile{Name: "reset", ResetAfter: 4096}, lethal: true},
	// Read-path mirrors: the victim's own reader — frame reassembly and
	// slab bookkeeping under REPLYB traffic — is the component under test.
	{p: chaos.Profile{Name: "read-latency", ReadLatencyMin: 20 * time.Microsecond, ReadLatencyMax: 200 * time.Microsecond}},
	{p: chaos.Profile{Name: "read-partial", ReadChunkMax: 7}},
	{p: chaos.Profile{Name: "read-truncate", ReadTruncateAfter: 8192}, lethal: true},
	{p: chaos.Profile{Name: "abuse"}, abuse: true},
	{p: chaos.Profile{Name: "silence"}, silence: true},
}

// chaosPayloadLen sizes the pipeline's interleaved bytes echoes.
const chaosPayloadLen = 192

// chaosHandlerName names the per-session counter handlers.
func chaosHandlerName(i int) string { return "chaos-counter" + strconv.Itoa(i) }

// chaosServer builds the runtime + server every scenario runs against:
// one counter handler per session slot, and the abuse scenario's slow
// handler (1ms per call, so a credit-ignoring flood deterministically
// outruns any window the server could have extended).
func chaosServer(cfg core.Config) (*core.Runtime, *Server, net.Listener, error) {
	rt := core.New(cfg)
	srv := NewServer(rt)
	srv.IdleTimeout = chaosIdleTimeout
	for i := 0; i < chaosVictims+chaosSurvivors; i++ {
		h := rt.NewHandler(chaosHandlerName(i))
		c := new(int64)
		srv.Expose(chaosHandlerName(i), h, map[string]Proc{
			"add": func(a []int64) int64 { *c += a[0]; return *c },
		})
		srv.ExposeBytes(chaosHandlerName(i), h, map[string]BytesProc{
			"echo": func(p []byte) []byte { return p },
		})
	}
	srv.Expose("chaos-abuse", rt.NewHandler("chaos-abuse"), map[string]Proc{
		"hold": func([]int64) int64 { time.Sleep(time.Millisecond); return 0 },
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Shutdown()
		return nil, nil, nil, err
	}
	go srv.Serve(ln)
	return rt, srv, ln, nil
}

// chaosPipeline drives chaosPerSession pipelined queries through each of the
// sessions [first, first+n) of mux, one goroutine per session — every
// fourth request a bytes echo through the slab path, the rest int64
// adds. Every future is awaited (with a deadline — recovery means
// nothing may hang). A bytes echo that resolves successfully must come
// back intact in every scenario (faults may kill requests, never
// corrupt survivors); wantClean additionally asserts that everything
// succeeded and the counters reached the add count exactly.
func chaosPipeline(mux *Mux, first, n int, wantClean bool) error {
	type bytesCheck struct {
		f    *future.Future
		want byte
	}
	type sessionRun struct {
		futs  []*future.Future
		bfuts []bytesCheck
		last  *future.Future
		adds  int
		err   error
	}
	runs := make([]sessionRun, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		rs := mux.NewSession()
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := make([]byte, chaosPayloadLen)
			runs[i].err = rs.Separate(chaosHandlerName(first+i), func(s *Session) error {
				for q := 0; q < chaosPerSession; q++ {
					if q%4 == 3 {
						pat := byte(q)
						for j := range payload {
							payload[j] = pat
						}
						// The payload is encoded before QueryBytesAsync
						// returns, so one buffer serves the whole session.
						f, err := s.QueryBytesAsync("echo", payload)
						if err != nil {
							return err
						}
						runs[i].bfuts = append(runs[i].bfuts, bytesCheck{f, pat})
						continue
					}
					f, err := s.QueryAsync("add", 1)
					if err != nil {
						return err
					}
					runs[i].futs = append(runs[i].futs, f)
					runs[i].last = f
					runs[i].adds++
				}
				return nil
			})
		}()
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		for i := range runs {
			for _, f := range runs[i].futs {
				f.Get() //nolint:errcheck // resolution is the assertion
			}
			for _, bc := range runs[i].bfuts {
				bc.f.Get() //nolint:errcheck
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(chaosAwaitTimeout):
		return fmt.Errorf("chaos futures still unresolved after %v (recovery guarantee broken)", chaosAwaitTimeout)
	}

	for i := range runs {
		for _, bc := range runs[i].bfuts {
			v, ferr := bc.f.Get()
			if ferr != nil {
				continue
			}
			p, _ := v.([]byte)
			intact := len(p) == chaosPayloadLen
			for _, x := range p {
				if x != bc.want {
					intact = false
					break
				}
			}
			Release(p)
			if !intact {
				return fmt.Errorf("chaos session %d: echo payload corrupted (%d bytes back, want %d of 0x%02x)",
					first+i, len(p), chaosPayloadLen, bc.want)
			}
		}
		if wantClean {
			if runs[i].err != nil {
				return fmt.Errorf("chaos session %d failed: %w", first+i, runs[i].err)
			}
			if v, ferr := runs[i].last.Get(); ferr != nil || v.(int64) != int64(runs[i].adds) {
				return fmt.Errorf("chaos counter %d ended at %v (err %v), want %d", first+i, v, ferr, runs[i].adds)
			}
		}
	}
	return nil
}

// chaosRun executes one scenario against a fresh server and then checks
// clean recovery (leakBaseline.settle): everything the run spawned —
// muxes, server conns, pool workers — is gone, no handler is left
// reserved and every payload slab is back in the pool. A violation
// comes back as an error.
func chaosRun(cfg core.Config, sc chaosScenario, seed int64) error {
	base := takeLeakBaseline()

	rt, srv, ln, err := chaosServer(cfg)
	if err != nil {
		return err
	}
	err = chaosTraffic(srv, ln.Addr().String(), sc, seed)
	srv.Close()
	if leak := base.settle(rt); err == nil {
		err = leak
	}
	return err
}

// chaosTraffic races the scenario's faulty victim against a clean
// survivor connection on srv, then checks the bounded-memory contract.
func chaosTraffic(srv *Server, addr string, sc chaosScenario, seed int64) error {
	// Survivor: an honest connection running its full workload while
	// the victim misbehaves. It must complete cleanly in every scenario.
	survErr := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			survErr <- err
			return
		}
		mux := NewMux(conn)
		defer mux.Close()
		survErr <- chaosPipeline(mux, chaosVictims, chaosSurvivors, true)
	}()

	if err := chaosVictim(srv, addr, sc, seed); err != nil {
		return err
	}
	if err := <-survErr; err != nil {
		return fmt.Errorf("survivor connection: %w", err)
	}

	// Bounded memory under every fault: a pending batch holds at most
	// the byte budget plus a window of replies, the largest a bytes
	// echo, for every channel of the sweep.
	echo := &frame{kind: fReplyB, ch: chaosVictims + chaosSurvivors, id: chaosPerSession, data: make([]byte, chaosPayloadLen)}
	bound := replyBound(defaultWriteBudget, chaosVictims+chaosSurvivors, echo)
	if max := srv.Stats().MaxBatchBytes; max > bound {
		return fmt.Errorf("pending batch grew to %d bytes (credit bound %d)", max, bound)
	}
	return nil
}

// chaosVictim plays the scenario's faulty peer to completion.
func chaosVictim(srv *Server, addr string, sc chaosScenario, seed int64) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	switch {
	case sc.abuse:
		defer conn.Close()
		// The server hangs up at the first call past the window, so the
		// tail of the flood may find the connection gone.
		conn.Write(chaos.Flood("chaos-abuse", "hold", 4096)) //nolint:errcheck
		if !chaosPoll(func() bool { return srv.Stats().ProtocolViolations >= 1 }) {
			return errors.New("flood of 4096 uncredited calls never dropped its connection")
		}
		return nil

	case sc.silence:
		defer conn.Close()
		// A BEGIN with no calls: open work, then silence — exactly what
		// the idle deadline exists for.
		if _, err := conn.Write(chaos.Flood(chaosHandlerName(0), "add", 0)); err != nil {
			return fmt.Errorf("silence BEGIN write: %w", err)
		}
		if !chaosPoll(func() bool { return srv.Stats().PeerStalls >= 1 }) {
			return errors.New("silent mid-block peer was never timed out")
		}
		return nil
	}

	wrapped := chaos.Wrap(conn, sc.p, seed)
	mux := NewMux(wrapped)
	defer mux.Close()
	if err := chaosPipeline(mux, 0, chaosVictims, !sc.lethal); err != nil {
		return err
	}
	if sc.lethal {
		// A lethal profile injects, so Wrap returned a *chaos.Conn.
		faults := wrapped.(*chaos.Conn).Counts()
		if faults.Truncates+faults.Resets+faults.ReadTruncates == 0 {
			return errors.New("the connection was never cut")
		}
		if mux.Err() == nil {
			return errors.New("victim mux survived the cut")
		}
		if errors.Is(mux.Err(), ErrClosed) {
			return errors.New("involuntary teardown reported as a clean close")
		}
	}
	return nil
}

// TestChaosFloodSpeaksTheWire decodes chaos.Flood's burst with the real
// frame reader — BEGIN, then n CALLBs with empty payloads, then the end
// of the stream — so the frame constants chaos mirrors cannot drift
// from the wire unnoticed.
func TestChaosFloodSpeaksTheWire(t *testing.T) {
	const n = 5
	fr := newFrameReader(bytes.NewReader(chaos.Flood("counter", "tick", n)))
	defer fr.close()
	var f frame
	for i := 0; i <= n; i++ {
		want := frame{kind: fCallB, ch: 1, name: "tick"}
		if i == 0 {
			want = frame{kind: fBegin, ch: 1, name: "counter"}
		}
		if err := fr.readFrame(&f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !frameEq(&f, &want) {
			t.Fatalf("frame %d = %+v, want %+v", i, f, want)
		}
	}
	if err := fr.readFrame(&f); err != io.EOF {
		t.Fatalf("after the burst: err = %v, want io.EOF", err)
	}
}

// chaosPoll waits (bounded) for cond to hold.
func chaosPoll(cond func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}

// TestChaosSweep runs the remote path through the fault-injection
// sweep: every chaos profile, the credit-abusing flood, and the silent
// mid-block peer, each next to an honest survivor connection, at pool
// widths 1 and 4. Each run asserts the robustness contract — server
// memory stays bounded, every victim future resolves (with terminal
// errors when the connection died), resolved echoes are byte-intact,
// survivors complete with exact counter values, overrun/idle
// enforcement fires, and nothing leaks goroutines. Fault sequences
// replay from the printed seed.
func TestChaosSweep(t *testing.T) {
	for _, pool := range []int{1, 4} {
		cfg := core.ConfigAll.WithWorkers(pool)
		for i, sc := range chaosScenarios {
			seed := chaosSeed + int64(i)
			t.Run(fmt.Sprintf("%s/pool%d", sc.p.Name, pool), func(t *testing.T) {
				if err := chaosRun(cfg, sc, seed); err != nil {
					t.Fatalf("profile %s, pool width %d, seed %d: %v", sc.p.Name, pool, seed, err)
				}
			})
		}
	}
}
