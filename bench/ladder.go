package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scoopqs/internal/compiler/interp"
	"scoopqs/internal/compiler/ir"
	"scoopqs/internal/compiler/passes"
	"scoopqs/internal/core"
	"scoopqs/internal/future"
	"scoopqs/internal/queue"
	"scoopqs/internal/remote"
	"scoopqs/internal/sched"
)

// The ladder: one timed loop per rung, each calling a layer's public
// functions from outside. Every traced run climbs the whole ladder, so
// a rung is measured once per workload run and the four readings show
// its own noise. Iteration counts are constants sized for 50–100 ms a
// rep on the reference host.
const rungReps = 3

// rung is one measured loop: median ns per iteration over rungReps reps
// and heap allocations per iteration over all of them.
type rung struct {
	ns, allocs float64
	reps       []float64
}

// measure times run(iters) rungReps times.
func measure(iters int, run func(n int)) rung {
	var r rung
	runtime.GC()
	m0 := mallocs()
	for i := 0; i < rungReps; i++ {
		t0 := time.Now()
		run(iters)
		r.reps = append(r.reps, float64(time.Since(t0).Nanoseconds())/float64(iters))
	}
	r.allocs = float64(mallocs()-m0) / float64(iters*rungReps)
	r.ns = median(r.reps)
	return r
}

// sink keeps the calibration loop's result alive.
var sink atomic.Int64

func rungCalibSpin() rung {
	return measure(20_000_000, func(n int) {
		x := int64(1)
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		sink.Store(x)
	})
}

func rungSpanOverhead() rung {
	b := &spanBuf{spans: make([]span, 0, 4096)}
	return measure(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			if len(b.spans) == cap(b.spans) {
				b.spans = b.spans[:0]
			}
			b.end(b.begin("x", "bench", 0, 0))
		}
	})
}

func rungSPSC() rung {
	q := queue.NewSPSC[int](0)
	return measure(2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			q.Enqueue(i)
			q.TryDequeue()
		}
	})
}

// rungSPSCXThread streams items from a producer goroutine to this one.
func rungSPSCXThread() rung {
	return measure(1_000_000, func(n int) {
		q := queue.NewSPSC[int](0)
		go func() {
			for i := 0; i < n; i++ {
				q.Enqueue(i)
			}
			q.Close()
		}()
		for {
			if _, ok := q.Dequeue(); !ok {
				return
			}
		}
	})
}

func rungMPSC() rung {
	q := queue.NewMPSC[int](0)
	return measure(2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			q.Enqueue(i)
			q.TryDequeue()
		}
	})
}

// rungMPSCContended has P producers reserve the way core does in pooled
// mode — a quiet enqueue followed by a wake that carries context —
// against one draining consumer.
func rungMPSCContended() rung {
	return measure(1_000_000, func(n int) {
		q := queue.NewMPSC[int](0)
		var wakes atomic.Int64
		var wg sync.WaitGroup
		per := n / P
		for p := 0; p < P; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					q.TryEnqueueNoNotify(i)
					wakes.Add(1)
				}
			}()
		}
		for got := 0; got < per*P; {
			if _, ok := q.TryDequeue(); ok {
				got++
			} else {
				runtime.Gosched()
			}
		}
		wg.Wait()
	})
}

// rungParker is a Park/Unpark ping-pong between two goroutines; the
// figure is one hand-off, half a round trip.
func rungParker() rung {
	r := measure(100_000, func(n int) {
		a, b := sched.NewParker(), sched.NewParker()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < n; i++ {
				b.Park()
				a.Unpark()
			}
		}()
		for i := 0; i < n; i++ {
			b.Unpark()
			a.Park()
		}
		<-done
	})
	r.ns /= 2
	return r
}

// pinger re-readies itself until its quota is used up, so every
// operation is one Ready (or ReadyLocal) plus one Step dispatch.
type pinger struct {
	e     *sched.Executor
	task  *sched.Task
	left  int
	local bool
	done  chan struct{}
}

func (p *pinger) Step(w *sched.Worker) {
	p.left--
	if p.left <= 0 {
		close(p.done)
		return
	}
	if p.local {
		p.e.ReadyLocal(w, p.task)
	} else {
		p.e.Ready(p.task)
	}
}

func rungDispatch(local bool, iters int) rung {
	e := sched.NewExecutor(P)
	defer e.Stop()
	return measure(iters, func(n int) {
		p := &pinger{e: e, left: n, local: local, done: make(chan struct{})}
		p.task = sched.NewTask(p)
		e.Ready(p.task)
		<-p.done
	})
}

func rungParallelFor() rung {
	e := sched.NewExecutor(P)
	defer e.Stop()
	data := make([]int64, 1<<20)
	return measure(len(data), func(n int) {
		sched.ParallelFor(e, 0, n, 4096, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				data[i]++
			}
		})
	})
}

// withSession runs body inside one separate block on a fresh handler of
// a fresh runtime under cfg.
func withSession(cfg core.Config, body func(c *core.Client, h *core.Handler, s *core.Session)) {
	rt := core.New(cfg)
	defer rt.Shutdown()
	h := rt.NewHandler("rung")
	c := rt.NewClient()
	c.Separate(h, func(s *core.Session) { body(c, h, s) })
}

// rungCall is the callstream shape: batches of streamBatch calls and
// one SyncNow.
func rungCall(cfg core.Config) (r rung) {
	withSession(cfg, func(_ *core.Client, _ *core.Handler, s *core.Session) {
		var n int
		fn := func() { n++ }
		r = measure(1_000_000, func(iters int) {
			for i := 0; i < iters; i += streamBatch {
				for j := 0; j < streamBatch; j++ {
					s.Call(fn)
				}
				s.SyncNow()
			}
		})
	})
	return r
}

// rungReserve enters and ends empty separate blocks; every 256th block
// syncs so the handler cannot fall arbitrarily far behind.
func rungReserve(cfg core.Config) rung {
	rt := core.New(cfg)
	defer rt.Shutdown()
	h := rt.NewHandler("rung")
	c := rt.NewClient()
	empty := func(*core.Session) {}
	synced := func(s *core.Session) { s.SyncNow() }
	return measure(300_000, func(n int) {
		for i := 0; i < n; i++ {
			if i%256 == 255 {
				c.Separate(h, synced)
			} else {
				c.Separate(h, empty)
			}
		}
	})
}

// rungSync is one Call followed by one SyncNow.
func rungSync(cfg core.Config, iters int) (r rung) {
	withSession(cfg, func(_ *core.Client, _ *core.Handler, s *core.Session) {
		var n int
		fn := func() { n++ }
		r = measure(iters, func(iters int) {
			for i := 0; i < iters; i++ {
				s.Call(fn)
				s.SyncNow()
			}
		})
	})
	return r
}

func rungQueryPackaged() (r rung) {
	withSession(core.ConfigAll, func(_ *core.Client, _ *core.Handler, s *core.Session) {
		var x int64
		q := func() int64 { x++; return x }
		r = measure(100_000, func(iters int) {
			for i := 0; i < iters; i++ {
				core.QueryRemote(s, q)
			}
		})
	})
	return r
}

// rungQueryElided is Query on a synced ConfigAll session: the sync is
// elided and the query runs on the client.
func rungQueryElided() (r rung) {
	withSession(core.ConfigAll, func(_ *core.Client, _ *core.Handler, s *core.Session) {
		var x int64
		q := func() int64 { x++; return x }
		s.SyncNow()
		r = measure(5_000_000, func(iters int) {
			for i := 0; i < iters; i++ {
				core.Query(s, q)
			}
		})
	})
	return r
}

// rungCallFuture is the server's shape: CallFuture resolved through an
// OnComplete callback, on the pooled executor, in batches.
func rungCallFuture() (r rung) {
	withSession(core.ConfigAll.WithWorkers(P), func(_ *core.Client, _ *core.Handler, s *core.Session) {
		var done atomic.Int64
		q := func() any { return nil }
		cb := func(any, error) { done.Add(1) }
		r = measure(300_000, func(iters int) {
			for i := 0; i < iters; i += streamBatch {
				for j := 0; j < streamBatch; j++ {
					s.CallFuture(q).OnComplete(cb)
				}
				s.SyncNow()
			}
		})
	})
	return r
}

// rungSeparateMany reserves two handlers with an empty body.
func rungSeparateMany() rung {
	rt := core.New(core.ConfigAll)
	defer rt.Shutdown()
	hs := []*core.Handler{rt.NewHandler("a"), rt.NewHandler("b")}
	c := rt.NewClient()
	empty := func([]*core.Session) {}
	synced := func(ss []*core.Session) {
		for _, s := range ss {
			s.SyncNow()
		}
	}
	return measure(200_000, func(n int) {
		for i := 0; i < n; i++ {
			if i%256 == 255 {
				c.SeparateMany(hs, synced)
			} else {
				c.SeparateMany(hs, empty)
			}
		}
	})
}

func rungFuture() rung {
	var hits int
	cb := func(any, error) { hits++ }
	return measure(2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			f := future.New()
			f.OnComplete(cb)
			f.Complete(nil)
		}
	})
}

// pipeListener hands the server one end of each in-memory pipe it is
// given: the transport without the socket.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// echoServer is a one-handler server with an 8-byte bytes proc and an
// int64 proc, reachable over TCP loopback or an in-memory pipe.
type echoServer struct {
	rt  *core.Runtime
	srv *remote.Server
	mux *remote.Mux
}

func newEchoServer(pipe bool) (*echoServer, error) {
	es := &echoServer{rt: core.New(core.ConfigAll.WithWorkers(P))}
	es.srv = remote.NewServer(es.rt)
	h := es.rt.NewHandler("echo")
	es.srv.ExposeBytes("echo", h, map[string]remote.BytesProc{
		"get":  func(p []byte) []byte { return p[:8] },
		"drop": func([]byte) []byte { return nil },
	})
	es.srv.Expose("echo", h, map[string]remote.Proc{"inc": func(a []int64) int64 { return a[0] + 1 }})
	if pipe {
		ln := newPipeListener()
		go es.srv.Serve(ln)
		client, server := net.Pipe()
		ln.conns <- server
		es.mux = remote.NewMux(client)
		return es, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		es.rt.Shutdown()
		return nil, err
	}
	go es.srv.Serve(ln)
	es.mux, err = remote.DialMux("tcp", ln.Addr().String())
	if err != nil {
		es.close()
		return nil, err
	}
	return es, nil
}

func (es *echoServer) close() {
	if es.mux != nil {
		es.mux.Close()
	}
	es.srv.Close()
	es.rt.Shutdown()
}

// rungRemote times body(s) per iteration inside one remote block.
func rungRemote(pipe bool, iters int, body func(s *remote.Session) error) (rung, error) {
	es, err := newEchoServer(pipe)
	if err != nil {
		return rung{}, err
	}
	defer es.close()
	rs := es.mux.NewSession()
	defer rs.Close()
	var r rung
	err = rs.Separate("echo", func(s *remote.Session) error {
		var first error
		r = measure(iters, func(n int) {
			for i := 0; i < n && first == nil; i++ {
				first = body(s)
			}
		})
		if first != nil {
			return first
		}
		return s.Sync()
	})
	return r, err
}

func bytesRoundTrip(s *remote.Session) error {
	var req [8]byte
	p, err := s.QueryBytes("get", req[:])
	remote.Release(p)
	return err
}

// fig14 is the paper's Fig. 14 copy loop, the sync-coalescing pass's
// target.
const fig14 = `func copyloop(n) handlers(h) arrays(x) {
B1:
  i = const 0
  sync h
  jmp B2
B2:
  c = lt i, n
  br c, body, B3
body:
  sync h
  v = qlocal h get(i)
  store x, i, v
  i = add i, 1
  jmp B2
B3:
  sync h
  ret i
}
`

// rungInterpLocal runs the Fig. 14 loop on a dedicated ConfigStatic
// runtime; the figure is ns per loop iteration.
func rungInterpLocal(f *ir.Func) (rung, error) {
	const n = 512
	rt := core.New(core.ConfigStatic)
	defer rt.Shutdown()
	h := rt.NewHandler("h")
	c := rt.NewClient()
	data, out := make([]int64, n), make([]int64, n)
	env := &interp.Env{Ints: map[string]int64{"n": n}, Arrays: map[string][]int64{"x": out}}
	var first error
	r := measure(60, func(runs int) {
		for i := 0; i < runs; i++ {
			c.Separate(h, func(s *core.Session) {
				env.Handlers = map[string]interp.SessionOps{
					"h": interp.HandlerBinding{Session: s, Methods: map[string]func([]int64) int64{
						"get": func(a []int64) int64 { return data[a[0]] },
					}},
				}
				if _, err := interp.Run(f, env); err != nil && first == nil {
					first = err
				}
			})
		}
	})
	r.ns /= n
	return r, first
}

// copyloopProgram finds the corpus entry for the Fig. 14 loop.
func copyloopProgram() (interp.Program, error) {
	for _, p := range interp.Corpus() {
		if p.Name == "copyloop" {
			return p, nil
		}
	}
	return interp.Program{}, fmt.Errorf("interp.Corpus has no copyloop program")
}

// rungInterpRemote runs the corpus copy loop over the mux: every sync
// and query is a wire round trip. Handler state is server-side, so each
// run gets a fresh server, built outside the timing. It returns the
// median µs of a run and the round trips one run made, as the adapters
// count them, cross-checked against the transport's own counter.
func rungInterpRemote(p interp.Program, f *ir.Func) (us float64, roundTrips int64, err error) {
	const runs = 12
	var reps []float64
	for i := 0; i < runs && err == nil; i++ {
		err = func() error {
			rt := core.New(core.ConfigAll.WithWorkers(P))
			defer rt.Shutdown()
			srv := remote.NewServer(rt)
			defer srv.Close()
			for _, hv := range f.Handlers {
				procs := map[string]remote.Proc{}
				for name, fn := range interp.NewModel() {
					procs[name] = remote.Proc(fn)
				}
				srv.Expose(p.RemoteHandlerName(hv), rt.NewHandler(hv), procs)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			go srv.Serve(ln)
			mux, err := remote.DialMux("tcp", ln.Addr().String())
			if err != nil {
				return err
			}
			defer mux.Close()
			t0 := time.Now()
			_, ctrs, err := p.RunRemote(mux, f)
			reps = append(reps, float64(time.Since(t0).Microseconds()))
			if err != nil {
				return err
			}
			roundTrips = ctrs.RoundTrips
			if wire := int64(mux.Stats().RoundTrips) - int64(len(f.Handlers)); wire != roundTrips {
				return fmt.Errorf("copyloop: adapters counted %d round trips, the mux %d", roundTrips, wire)
			}
			return nil
		}()
	}
	return median(reps), roundTrips, err
}

// climb measures every rung and fills the ladder's layer metrics.
func climb(rep *report) error {
	start := time.Now()
	set := func(name string, v float64, unit string) {
		rep.set(name, v, unit)
		fmt.Printf("  rung %-44s %14.3f %s\n", name, v, unit)
	}
	ns := func(name string, r rung) rung {
		set(name, r.ns, "ns")
		rep.detail[name] = map[string]any{"samples": len(r.reps), "reps": r.reps}
		return r
	}

	ns("bench.calib_spin_ns", rungCalibSpin())
	ns("bench.span_overhead_ns", rungSpanOverhead())

	spsc := ns("queue.spsc_op_ns", rungSPSC())
	set("queue.spsc_allocs_per_op", spsc.allocs, "1/op")
	ns("queue.spsc_xthread_ns", rungSPSCXThread())
	mpsc := ns("queue.mpsc_op_ns", rungMPSC())
	set("queue.mpsc_allocs_per_op", mpsc.allocs, "1/op")
	ns("queue.mpsc_contended_op_ns", rungMPSCContended())

	ns("sched.parker_handoff_ns", rungParker())
	inject := ns("sched.dispatch_inject_ns", rungDispatch(false, 500_000))
	ns("sched.dispatch_local_ns", rungDispatch(true, 2_000_000))
	ns("sched.parallel_for_ns_per_item", rungParallelFor())

	dedicated, pooled := core.ConfigAll, core.ConfigAll.WithWorkers(P)
	call := ns("core.call_dedicated_ns", rungCall(dedicated))
	set("core.call_allocs_per_op", call.allocs, "1/op")
	ns("core.call_pooled_ns", rungCall(pooled))
	reserve := ns("core.reserve_dedicated_ns", rungReserve(dedicated))
	set("core.reserve_allocs_per_op", reserve.allocs, "1/op")
	ns("core.reserve_pooled_ns", rungReserve(pooled))
	ns("core.sync_dedicated_ns", rungSync(dedicated, 100_000))
	ns("core.sync_pooled_ns", rungSync(pooled, 100_000))
	ns("core.query_packaged_ns", rungQueryPackaged())
	ns("core.query_elided_ns", rungQueryElided())
	callFuture := ns("core.call_future_ns", rungCallFuture())
	ns("core.separate_many_ns", rungSeparateMany())

	fut := ns("future.complete_ns", rungFuture())
	set("future.allocs_per_op", fut.allocs, "1/op")

	tcp, err := rungRemote(false, 3000, bytesRoundTrip)
	if err != nil {
		return fmt.Errorf("remote.tcp_rtt_ns: %w", err)
	}
	ns("remote.tcp_rtt_ns", tcp)
	set("remote.allocs_per_rtt", tcp.allocs, "1/op")
	pipe, err := rungRemote(true, 3000, bytesRoundTrip)
	if err != nil {
		return fmt.Errorf("remote.pipe_rtt_ns: %w", err)
	}
	ns("remote.pipe_rtt_ns", pipe)
	intRTT, err := rungRemote(false, 3000, func(s *remote.Session) error { _, err := s.Query("inc", 1); return err })
	if err != nil {
		return fmt.Errorf("remote.int_rtt_ns: %w", err)
	}
	ns("remote.int_rtt_ns", intRTT)
	var payload [32]byte
	callB, err := rungRemote(false, 200_000, func(s *remote.Session) error { return s.CallBytes("drop", payload[:]) })
	if err != nil {
		return fmt.Errorf("remote.call_ns: %w", err)
	}
	ns("remote.call_ns", callB)

	// The three residuals ROADMAP's "rungs add up" check asks for:
	// reported, not asserted.
	set("bench.residual_tcp_minus_pipe_ns", tcp.ns-pipe.ns, "ns")
	set("bench.residual_pipe_minus_callfuture_ns", pipe.ns-callFuture.ns, "ns")
	set("bench.residual_callfuture_minus_dispatch_ns", callFuture.ns-inject.ns, "ns")

	naive, err := ir.Parse(fig14)
	if err != nil {
		return fmt.Errorf("fig14: %w", err)
	}
	var coalesced *passes.Result
	var passErr error
	coalesce := measure(2000, func(n int) {
		for i := 0; i < n; i++ {
			if coalesced, passErr = passes.Coalesce(naive); passErr != nil {
				return
			}
		}
	})
	if passErr != nil {
		return fmt.Errorf("passes.Coalesce: %w", passErr)
	}
	set("compiler.coalesce_us", coalesce.ns/1e3, "us")
	for _, v := range []struct {
		name string
		f    *ir.Func
	}{{"compiler.interp_naive_ns_per_iter", naive}, {"compiler.interp_coalesced_ns_per_iter", coalesced.Func}} {
		r, err := rungInterpLocal(v.f)
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		ns(v.name, r)
	}
	prog, err := copyloopProgram()
	if err != nil {
		return err
	}
	progNaive, err := prog.Parse()
	if err != nil {
		return fmt.Errorf("copyloop: %w", err)
	}
	progCoalesced, err := passes.Coalesce(progNaive)
	if err != nil {
		return fmt.Errorf("copyloop: %w", err)
	}
	for _, v := range []struct {
		kind string
		f    *ir.Func
	}{{"naive", progNaive}, {"coalesced", progCoalesced.Func}} {
		us, trips, err := rungInterpRemote(prog, v.f)
		if err != nil {
			return fmt.Errorf("compiler.interp_remote_%s_us: %w", v.kind, err)
		}
		set("compiler.interp_remote_"+v.kind+"_us", us, "us")
		set("compiler.roundtrips_"+v.kind, float64(trips), "count")
	}
	fmt.Printf("  ladder climbed in %.2f s\n", time.Since(start).Seconds())
	return nil
}
