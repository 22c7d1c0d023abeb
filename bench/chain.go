package main

import (
	"fmt"
	"time"

	"scoopqs/internal/core"
	"scoopqs/internal/cowichan"
	"scoopqs/internal/cowichan/qsimpl"
)

// Sizes of one chain rep (constants; README "Probe numbers").
const (
	chainNR    = 2000 // ConfigAll: sync-elided pulls, what a user runs
	packagedNR = 500  // ConfigQoQ: every element a packaged QueryRemote
	chainPct   = 1
)

// chainTask is one cowichan chain on one long-lived implementation.
type chainTask struct {
	im      *qsimpl.Impl
	p       cowichan.Params
	want    cowichan.Vector // cowichan.NewSeq's result for p
	timings []cowichan.Timing

	// Traced run: kernels runs the chain with a span around each kernel
	// while tracing is set; kernelSecs keeps each kernel's wall times.
	kernels    func(p cowichan.Params) (cowichan.Vector, cowichan.Timing)
	tracing    bool
	kernelSecs map[string][]float64
}

// traceKernels arms the per-kernel spans; keep says whether the wall
// times are kept for the cowichan.<kernel>_s metrics.
func (ct *chainTask) traceKernels(tr *tracer, keep bool) {
	ct.kernelSecs = map[string][]float64{}
	ct.kernels = func(p cowichan.Params) (cowichan.Vector, cowichan.Timing) {
		var total cowichan.Timing
		kernel := func(name string, run func() cowichan.Timing) {
			sp := tr.begin("cowichan."+name, "cowichan", 0)
			t0 := time.Now()
			total = total.Add(run())
			if keep {
				ct.kernelSecs[name] = append(ct.kernelSecs[name], time.Since(t0).Seconds())
			}
			tr.end(sp)
		}
		var (
			mat  *cowichan.Matrix
			mask *cowichan.Mask
			pts  []cowichan.Point
			om   *cowichan.FMatrix
			ov   cowichan.Vector
			res  cowichan.Vector
		)
		kernel("randmat", func() (t cowichan.Timing) { mat, t = ct.im.Randmat(p); return })
		kernel("thresh", func() (t cowichan.Timing) { mask, t = ct.im.Thresh(mat, p.P); return })
		kernel("winnow", func() (t cowichan.Timing) { pts, t = ct.im.Winnow(mat, mask, p.NW); return })
		kernel("outer", func() (t cowichan.Timing) { om, ov, t = ct.im.Outer(pts); return })
		kernel("product", func() (t cowichan.Timing) { res, t = ct.im.Product(om, ov); return })
		return res, total
	}
}

func (ct *chainTask) run(p cowichan.Params, want cowichan.Vector) error {
	var res cowichan.Vector
	var tm cowichan.Timing
	if ct.tracing {
		res, tm = ct.kernels(p)
	} else {
		r := cowichan.Chain(ct.im, p)
		res, tm = r.Result, r.Timing
	}
	if want != nil {
		ct.timings = append(ct.timings, tm)
		if !res.Equal(want) {
			return fmt.Errorf("chain result differs from the sequential reference (NR=%d seed=%d)", p.NR, p.Seed)
		}
	}
	return nil
}

// chainState is one set-up of the chain workload.
type chainState struct {
	tasks  []*task
	chains map[string]*chainTask // by task id
}

func (st *chainState) close() {
	for _, ct := range st.chains {
		ct.im.Close()
	}
}

// chainParams keeps the top chainPct percent, or as many more as the
// tests' tiny matrices need for NW points to exist.
func chainParams(nr int, seed int64) cowichan.Params {
	return cowichan.Params{NR: nr, P: max(chainPct, 200/nr+1), NW: nr, Seed: uint32(seed)}
}

func buildChain(seed int64, scale int) (*chainState, error) {
	st := &chainState{chains: map[string]*chainTask{}}
	seq := cowichan.NewSeq()
	add := func(name, mode string, cfg core.Config, nr int) error {
		nr = max(nr/scale, 64)
		p := chainParams(nr, seed)
		if err := p.Validate(); err != nil {
			return err
		}
		// The ConfigAll chains warm up at full size so the heap has grown
		// to its working size before the first timed rep; the packaged
		// chain's matrices are small and its warm-up is a quarter size.
		small := p
		if mode == "packaged" {
			small = chainParams(max(nr/4, 64), seed)
		}
		ct := &chainTask{im: qsimpl.New(cfg, P), p: p, want: cowichan.Chain(seq, p).Result}
		t := &task{
			name: name, mode: mode, layer: "cowichan", ops: int64(nr) * int64(nr),
			rep:  func() error { return ct.run(p, ct.want) },
			warm: func() error { return ct.run(small, nil) },
		}
		st.chains[t.id()] = ct
		st.tasks = append(st.tasks, t)
		return nil
	}
	for _, m := range modes() {
		if err := add("chain", m.name, m.cfg, chainNR); err != nil {
			return nil, err
		}
	}
	if err := add("chain", "packaged", core.ConfigQoQ, packagedNR); err != nil {
		return nil, err
	}
	warmAll(st.tasks)
	return st, nil
}

// medianDur is the median of a timing component over the reps, in seconds.
func medianDur(ts []cowichan.Timing, pick func(cowichan.Timing) time.Duration) float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = pick(t).Seconds()
	}
	return median(xs)
}

func runChain(c *runCtx) (*report, error) {
	st, setupSecs, err := setUp(func() (*chainState, error) { return buildChain(c.seed, c.scale) }, (*chainState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	if c.tr != nil {
		return tracedChain(c, st)
	}
	packaged := st.chains["chain_packaged"]
	q0 := packaged.im.Runtime().Stats().RemoteQueries
	rs := runRounds(st.tasks, c.budget, minReps, nil)
	printResults(rs)
	rep := newReport()
	rep.attempted, rep.failed = tally(rs)
	rep.taskDetail(rs)

	all := append(byMode(rs, "dedicated"), byMode(rs, "pooled")...)
	pk := find(rs, "chain_packaged")
	queries := float64(packaged.im.Runtime().Stats().RemoteQueries-q0) / float64(len(pk.secs))
	comm := medianDur(st.chains["chain_dedicated"].timings, func(t cowichan.Timing) time.Duration { return t.Comm })
	fmt.Printf("  chain_dedicated comm median %.6f s; packaged chain %.6f s over %.0f queries\n",
		comm, pk.seconds(), queries)
	rep.detail["comm_s"] = comm
	rep.detail["packaged_s"] = pk.seconds()
	rep.detail["packaged_queries"] = queries
	rep.setE2E(setupSecs, opsPerSecond(all),
		nsPerOpGeomean(byMode(rs, "dedicated")), nsPerOpGeomean(byMode(rs, "pooled")),
		pk.seconds()*1e6/queries, allocsPerOp(rs))
	return rep, nil
}
