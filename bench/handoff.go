package main

import (
	"fmt"
	"slices"
	"sync"

	"scoopqs/internal/concbench"
	"scoopqs/internal/core"
)

// Sizes of one handoff rep. Constants, so every commit does the same
// work; each is sized from probes on the 2-core reference host to take
// 0.1–0.3 s (README "Probe numbers").
const (
	mutexClients     = 4
	mutexIters       = 25000 // per client
	ringSize         = 503   // CLBG convention
	ringHopsDed      = 2500  // dedicated: every hop is a park/unpark pair
	ringHopsPool     = 25000
	ring10kSize      = 10000
	ring10kHopsDed   = 6000
	ring10kHopsPool  = 40000
	streamBatch      = 256 // calls logged per SyncNow, as BenchmarkSessionCall
	callstreamCalls  = 500000
	fanoutCalls      = 300000 // per client, P clients
	syncpingTripsDed = 60000
	syncpingTripsPoo = 80000
	warmDivisor      = 8 // a warm-up rep is the task at 1/8 size
)

// modes are the two execution shapes every task runs in: the paper's
// dedicated goroutine per handler, and the pooled M:N executor.
func modes() []struct {
	name string
	cfg  core.Config
} {
	return []struct {
		name string
		cfg  core.Config
	}{
		{"dedicated", core.ConfigAll},
		{"pooled", core.ConfigAll.WithWorkers(P)},
	}
}

// concTask wraps one concbench Qs benchmark as a task. ops is what the
// benchmark's self-check counts for p. The guard workloads hand their
// runtime's final counters to onStats (which may be nil); the others
// keep their runtime to themselves.
func concTask(name, bench, mode string, cfg core.Config, p concbench.Params, ops func(concbench.Params) int64, onStats func(core.Stats, int64)) *task {
	guarded := slices.Contains(concbench.GuardNames, bench)
	run := func(p concbench.Params) func() error {
		return func() error {
			if !guarded {
				return concbench.Run(bench, "Qs", cfg, p)
			}
			st, err := concbench.RunGuard(bench, cfg, p)
			if onStats != nil {
				onStats(st, ops(p))
			}
			return err
		}
	}
	small := p
	small.M = max(p.M/warmDivisor, 1)
	small.NT = max(p.NT/warmDivisor, 1)
	small.NC = max(p.NC/warmDivisor, 1)
	return &task{name: name, mode: mode, layer: "concbench", ops: ops(p), rep: run(p), warm: run(small)}
}

// streams is the state of the benchmark's own hand-off tasks in one
// mode: n clients, each streaming calls to a handler of its own.
type streams struct {
	rt      *core.Runtime
	clients []*core.Client
	hs      []*core.Handler
	counts  []int64  // counts[i] is owned by hs[i]
	incs    []func() // hoisted: time the runtime's cost, not the caller's closure
	tr      *tracer
	bufs    []*spanBuf
	tracing bool // spans and probes are recorded only while set

	// Traced run only: one call per sampled batch stamps when it starts
	// on the handler; waits[i] collects start − (Call returned).
	started []int64
	probes  []func()
	waits   [][]int64
}

func newStreams(cfg core.Config, n int, tr *tracer) *streams {
	s := &streams{rt: core.New(cfg), tr: tr, counts: make([]int64, n), started: make([]int64, n), waits: make([][]int64, n)}
	for i := 0; i < n; i++ {
		i := i
		s.clients = append(s.clients, s.rt.NewClient())
		s.hs = append(s.hs, s.rt.NewHandler(fmt.Sprintf("sink%d", i)))
		s.incs = append(s.incs, func() { s.counts[i]++ })
		s.probes = append(s.probes, func() { s.started[i] = nowNS(); s.counts[i]++ })
		s.bufs = append(s.bufs, tr.buf())
	}
	return s
}

func (s *streams) close() { s.rt.Shutdown() }

// run streams perClient calls from every client in batches of batch
// calls followed by one SyncNow, then checks each handler counted them.
func (s *streams) run(perClient, batch int) error {
	errs := make([]error, len(s.clients))
	rep := s.tr.currentID()
	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf, inc := s.bufs[i], s.incs[i]
			if !s.tracing {
				buf = nil
			}
			var before, after int64
			block := buf.begin("core.Separate", "core", rep, 0)
			s.clients[i].Separate(s.hs[i], func(sess *core.Session) {
				sess.SyncNow()
				before = core.LocalQuery(sess, func() int64 { return s.counts[i] })
				for k, nb := 0, 0; k < perClient; k, nb = k+batch, nb+1 {
					n := min(batch, perClient-k)
					if buf == nil || nb%sampleEvery != 0 {
						for j := 0; j < n; j++ {
							sess.Call(inc)
						}
						sess.SyncNow()
						continue
					}
					calls := buf.begin("core.Call_batch", "core", block.id(), 0)
					sess.Call(s.probes[i])
					logged := nowNS()
					for j := 1; j < n; j++ {
						sess.Call(inc)
					}
					buf.end(calls)
					sync := buf.begin("core.SyncNow", "core", block.id(), 0)
					sess.SyncNow()
					buf.end(sync)
					s.waits[i] = append(s.waits[i], max(s.started[i]-logged, 0))
				}
				after = core.LocalQuery(sess, func() int64 { return s.counts[i] })
			})
			buf.end(block)
			if after-before != int64(perClient) {
				errs[i] = fmt.Errorf("handler %d ran %d calls, want %d", i, after-before, perClient)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// streamTask makes a task from a streams value.
func streamTask(name, mode string, s *streams, perClient, batch int) *task {
	return &task{
		name: name, mode: mode, layer: "core",
		ops:  int64(perClient) * int64(len(s.clients)),
		rep:  func() error { return s.run(perClient, batch) },
		warm: func() error { return s.run(max(perClient/warmDivisor, 1), batch) },
	}
}

// handoffState is one set-up of the handoff workload.
type handoffState struct {
	tasks   []*task
	streams []*streams
}

func (st *handoffState) close() {
	for _, s := range st.streams {
		s.close()
	}
}

// allWaits merges the traced call-queue-wait samples of the set-up.
func (st *handoffState) allWaits() []int64 {
	var out []int64
	for _, s := range st.streams {
		for _, w := range s.waits {
			out = append(out, w...)
		}
	}
	return out
}

// streamStats sums the runtime counters of the benchmark-owned tasks.
func (st *handoffState) streamStats() core.Stats {
	var sum core.Stats
	for _, s := range st.streams {
		sum = addStats(sum, s.rt.Stats())
	}
	return sum
}

func buildHandoff(tr *tracer, scale int) (*handoffState, error) {
	st := &handoffState{}
	for _, m := range modes() {
		pooled := m.cfg.Workers > 0
		pick := func(ded, pool int) int {
			if pooled {
				return max(pool/scale, 1)
			}
			return max(ded/scale, 1)
		}
		mutex := concbench.Params{N: mutexClients, M: max(mutexIters/scale, 1)}
		ring := concbench.Params{Ring: ringSize, NT: pick(ringHopsDed, ringHopsPool)}
		ring10k := concbench.Params{Ring: ring10kSize / min(scale, 10), NT: pick(ring10kHopsDed, ring10kHopsPool)}
		one := newStreams(m.cfg, 1, tr)
		fan := newStreams(m.cfg, P, tr)
		ping := newStreams(m.cfg, 1, tr)
		st.streams = append(st.streams, one, fan, ping)
		st.tasks = append(st.tasks,
			concTask("mutex", "mutex", m.name, m.cfg, mutex, func(p concbench.Params) int64 { return int64(p.N) * int64(p.M) }, nil),
			concTask("threadring", "threadring", m.name, m.cfg, ring, func(p concbench.Params) int64 { return int64(p.NT) }, nil),
			concTask("ring10k", "threadring", m.name, m.cfg, ring10k, func(p concbench.Params) int64 { return int64(p.NT) }, nil),
			streamTask("callstream", m.name, one, max(callstreamCalls/scale, 1), streamBatch),
			streamTask("fanout", m.name, fan, max(fanoutCalls/scale, 1), streamBatch),
			streamTask("syncping", m.name, ping, pick(syncpingTripsDed, syncpingTripsPoo), 1),
		)
	}
	warmAll(st.tasks)
	return st, nil
}

func runHandoff(c *runCtx) (*report, error) {
	st, setupSecs, err := setUp(func() (*handoffState, error) { return buildHandoff(c.tr, c.scale) }, (*handoffState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	if c.tr != nil {
		return tracedHandoff(c, st)
	}
	return runModes(c, st.tasks, setupSecs, "syncping"), nil
}
