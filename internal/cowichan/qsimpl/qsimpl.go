// Package qsimpl implements the Cowichan kernels on the SCOOP/Qs
// runtime: worker handlers own row shards; the client distributes
// inputs by logging asynchronous calls that carry row copies (push) and
// collects results with synchronous queries (pull), the idiomatic
// SCOOP data-transfer pattern of the paper's §3.4. Pulling is
// element-by-element in a tight loop — precisely the access pattern
// whose sync traffic the dynamic and static coalescing optimizations
// exist to eliminate, which is what Table 1/Fig. 16 measure.
//
// The configuration decides the query strategy:
//
//   - None / QoQ: every element is a packaged remote query (Fig. 10a).
//   - Dynamic: client-side queries; each checks the synced flag and the
//     redundant round-trips are elided at run time (§3.4.1).
//   - Static / All: the hoisted code the static sync-coalescing pass
//     generates — one SyncNow per pull loop, LocalQuery per element
//     (§3.4.2; the transformation is validated on equivalent IR by the
//     compiler tests).
//
// Timing: Compute covers the in-handler kernel work (measured between
// issuing the compute calls and the completion barrier); Comm covers
// input row pushes and the query pull loops.
package qsimpl

import (
	"time"

	"scoopqs/internal/core"
	"scoopqs/internal/cowichan"
	"scoopqs/internal/sched"
)

// pullMode selects the query strategy implied by the configuration.
type pullMode uint8

const (
	modeRemote pullMode = iota
	modeDynamic
	modeHoisted
)

// shard is the state owned by one worker handler. By the SCOOP
// discipline it is touched only from calls and queries executed on
// that handler.
type shard struct {
	lo, hi int // row range of this worker
	n      int // row width
	rows   [][]int32
	mask   [][]bool
	hist   []int
	pts    []cowichan.Point
	frows  [][]float64
	fvec   []float64
}

// Impl is the SCOOP/Qs implementation.
type Impl struct {
	rt      *core.Runtime
	client  *core.Client
	hs      []*core.Handler
	shards  []*shard
	mode    pullMode
	ownRT   bool
	workers int
}

// New creates an implementation with its own runtime under cfg and the
// given number of worker handlers.
func New(cfg core.Config, workers int) *Impl {
	if workers < 1 {
		workers = 1
	}
	rt := core.New(cfg)
	im := &Impl{rt: rt, client: rt.NewClient(), ownRT: true, workers: workers}
	switch {
	case cfg.StaticElide:
		im.mode = modeHoisted
	case cfg.DynElide:
		im.mode = modeDynamic
	default:
		im.mode = modeRemote
	}
	for w := 0; w < workers; w++ {
		im.hs = append(im.hs, rt.NewHandler("cowichan-worker"))
		im.shards = append(im.shards, &shard{})
	}
	return im
}

// Name implements cowichan.Impl.
func (*Impl) Name() string { return "Qs" }

// Runtime exposes the underlying runtime (for stats in tests and the
// harness).
func (im *Impl) Runtime() *core.Runtime { return im.rt }

// Close implements cowichan.Impl.
func (im *Impl) Close() {
	if im.ownRT {
		im.rt.Shutdown()
	}
}

// pull copies n handler-owned values into set(k, v) using the
// configuration's query strategy. get runs against handler state.
func pull[T any](im *Impl, s *core.Session, n int, get func(k int) T, set func(k int, v T)) {
	switch im.mode {
	case modeRemote:
		for k := 0; k < n; k++ {
			k := k
			set(k, core.QueryRemote(s, func() T { return get(k) }))
		}
	case modeDynamic:
		for k := 0; k < n; k++ {
			k := k
			set(k, core.Query(s, func() T { return get(k) }))
		}
	case modeHoisted:
		s.Sync()
		for k := 0; k < n; k++ {
			k := k
			set(k, core.LocalQuery(s, func() T { return get(k) }))
		}
	}
}

// pullScalar fetches a single handler-owned value.
func pullScalar[T any](im *Impl, s *core.Session, get func() T) T {
	var out T
	pull(im, s, 1, func(int) T { return get() }, func(_ int, v T) { out = v })
	return out
}

// kernel runs body with all worker handlers reserved and the shards
// assigned to row ranges of n rows.
func (im *Impl) kernel(n int, body func(ss []*core.Session, ranges [][2]int)) {
	ranges := cowichan.SplitRows(n, im.workers)
	im.client.SeparateMany(im.hs[:len(ranges)], func(ss []*core.Session) {
		body(ss, ranges)
	})
}

// barrier syncs every session, completing all logged compute calls.
func barrier(ss []*core.Session) {
	for _, s := range ss {
		s.SyncNow()
	}
}

// Randmat implements cowichan.Impl.
func (im *Impl) Randmat(p cowichan.Params) (*cowichan.Matrix, cowichan.Timing) {
	var t cowichan.Timing
	m := cowichan.NewMatrix(p.NR)
	im.kernel(p.NR, func(ss []*core.Session, ranges [][2]int) {
		t0 := time.Now()
		for w, r := range ranges {
			w, r := w, r
			sh := im.shards[w]
			ss[w].Call(func() {
				sh.lo, sh.hi, sh.n = r[0], r[1], p.NR
				sh.rows = make([][]int32, 0, r[1]-r[0])
				for i := r[0]; i < r[1]; i++ {
					row := make([]int32, p.NR)
					cowichan.FillRow(row, p.Seed, i)
					sh.rows = append(sh.rows, row)
				}
			})
		}
		barrier(ss)
		t.Compute += time.Since(t0)

		t1 := time.Now()
		for w, r := range ranges {
			sh := im.shards[w]
			rows := r[1] - r[0]
			pull(im, ss[w], rows*p.NR,
				func(k int) int32 { return sh.rows[k/p.NR][k%p.NR] },
				func(k int, v int32) { m.Set(r[0]+k/p.NR, k%p.NR, v) })
		}
		t.Comm += time.Since(t1)
	})
	return m, t
}

// pushRows distributes matrix rows [lo, hi) to a worker by logging one
// asynchronous call per row, each carrying a fresh copy (handlers must
// not share memory with the client).
func pushRows(s *core.Session, sh *shard, m *cowichan.Matrix, lo, hi int) {
	s.Call(func() {
		sh.lo, sh.hi, sh.n = lo, hi, m.N
		sh.rows = make([][]int32, 0, hi-lo)
	})
	for i := lo; i < hi; i++ {
		rc := append([]int32(nil), m.Row(i)...)
		s.Call(func() { sh.rows = append(sh.rows, rc) })
	}
}

// pushMask distributes mask rows the same way.
func pushMask(s *core.Session, sh *shard, mask *cowichan.Mask, lo, hi int) {
	s.Call(func() { sh.mask = make([][]bool, 0, hi-lo) })
	for i := lo; i < hi; i++ {
		rc := append([]bool(nil), mask.Row(i)...)
		s.Call(func() { sh.mask = append(sh.mask, rc) })
	}
}

// Thresh implements cowichan.Impl.
func (im *Impl) Thresh(m *cowichan.Matrix, pct int) (*cowichan.Mask, cowichan.Timing) {
	var t cowichan.Timing
	mask := cowichan.NewMask(m.N)
	im.kernel(m.N, func(ss []*core.Session, ranges [][2]int) {
		t0 := time.Now()
		for w, r := range ranges {
			pushRows(ss[w], im.shards[w], m, r[0], r[1])
		}
		t.Comm += time.Since(t0)

		t1 := time.Now()
		for w := range ranges {
			sh := im.shards[w]
			ss[w].Call(func() {
				sh.hist = make([]int, cowichan.MaxValue)
				for _, row := range sh.rows {
					for _, v := range row {
						sh.hist[v]++
					}
				}
			})
		}
		barrier(ss)
		t.Compute += time.Since(t1)

		// Pull and merge histograms, decide the cutoff on the client.
		t2 := time.Now()
		hist := make([]int, cowichan.MaxValue)
		for w := range ranges {
			sh := im.shards[w]
			pull(im, ss[w], cowichan.MaxValue,
				func(k int) int { return sh.hist[k] },
				func(k, v int) { hist[k] += v })
		}
		t.Comm += time.Since(t2)
		cut := cowichan.ThresholdFromHist(hist, len(m.A), pct)

		t3 := time.Now()
		for w := range ranges {
			sh := im.shards[w]
			ss[w].Call(func() {
				sh.mask = make([][]bool, len(sh.rows))
				for k, row := range sh.rows {
					b := make([]bool, len(row))
					for j, v := range row {
						b[j] = v >= cut
					}
					sh.mask[k] = b
				}
			})
		}
		barrier(ss)
		t.Compute += time.Since(t3)

		t4 := time.Now()
		for w, r := range ranges {
			sh := im.shards[w]
			rows := r[1] - r[0]
			pull(im, ss[w], rows*m.N,
				func(k int) bool { return sh.mask[k/m.N][k%m.N] },
				func(k int, v bool) { mask.Set(r[0]+k/m.N, k%m.N, v) })
		}
		t.Comm += time.Since(t4)
	})
	return mask, t
}

// Winnow implements cowichan.Impl.
func (im *Impl) Winnow(m *cowichan.Matrix, mask *cowichan.Mask, nw int) ([]cowichan.Point, cowichan.Timing) {
	var t cowichan.Timing
	var sel []cowichan.Point
	im.kernel(m.N, func(ss []*core.Session, ranges [][2]int) {
		t0 := time.Now()
		for w, r := range ranges {
			pushRows(ss[w], im.shards[w], m, r[0], r[1])
			pushMask(ss[w], im.shards[w], mask, r[0], r[1])
		}
		t.Comm += time.Since(t0)

		t1 := time.Now()
		for w := range ranges {
			sh := im.shards[w]
			ss[w].Call(func() {
				sh.pts = sh.pts[:0]
				for k, row := range sh.rows {
					for j, keep := range sh.mask[k] {
						if keep {
							sh.pts = append(sh.pts, cowichan.Point{Value: row[j], I: int32(sh.lo + k), J: int32(j)})
						}
					}
				}
			})
		}
		barrier(ss)
		t.Compute += time.Since(t1)

		t2 := time.Now()
		var pts []cowichan.Point
		for w := range ranges {
			sh := im.shards[w]
			count := pullScalar(im, ss[w], func() int { return len(sh.pts) })
			base := len(pts)
			pts = append(pts, make([]cowichan.Point, count)...)
			pull(im, ss[w], count,
				func(k int) cowichan.Point { return sh.pts[k] },
				func(k int, v cowichan.Point) { pts[base+k] = v })
		}
		t.Comm += time.Since(t2)

		// Sort and select on the client. The sort's helper tasks run on
		// the same executor that runs the handlers — the unified
		// scheduler serving both workloads.
		t3 := time.Now()
		sched.ParallelSort(im.rt.Executor(), pts, func(a, b cowichan.Point) bool { return a.Less(b) })
		sel = cowichan.SelectPoints(pts, nw)
		t.Compute += time.Since(t3)
	})
	return sel, t
}

// Outer implements cowichan.Impl.
func (im *Impl) Outer(pts []cowichan.Point) (*cowichan.FMatrix, cowichan.Vector, cowichan.Timing) {
	var t cowichan.Timing
	n := len(pts)
	om := cowichan.NewFMatrix(n)
	vec := make(cowichan.Vector, n)
	im.kernel(n, func(ss []*core.Session, ranges [][2]int) {
		t0 := time.Now()
		for w, r := range ranges {
			w, r := w, r
			sh := im.shards[w]
			pc := append([]cowichan.Point(nil), pts...) // full copy per worker
			ss[w].Call(func() {
				sh.lo, sh.hi = r[0], r[1]
				sh.pts = pc
			})
		}
		t.Comm += time.Since(t0)

		t1 := time.Now()
		for w := range ranges {
			sh := im.shards[w]
			ss[w].Call(func() {
				sh.frows = make([][]float64, 0, sh.hi-sh.lo)
				sh.fvec = make([]float64, 0, sh.hi-sh.lo)
				for i := sh.lo; i < sh.hi; i++ {
					row := make([]float64, len(sh.pts))
					cowichan.OuterRow(row, sh.pts, i)
					sh.frows = append(sh.frows, row)
					sh.fvec = append(sh.fvec, cowichan.OriginDistance(sh.pts[i]))
				}
			})
		}
		barrier(ss)
		t.Compute += time.Since(t1)

		t2 := time.Now()
		for w, r := range ranges {
			sh := im.shards[w]
			rows := r[1] - r[0]
			pull(im, ss[w], rows*n,
				func(k int) float64 { return sh.frows[k/n][k%n] },
				func(k int, v float64) { om.Set(r[0]+k/n, k%n, v) })
			pull(im, ss[w], rows,
				func(k int) float64 { return sh.fvec[k] },
				func(k int, v float64) { vec[r[0]+k] = v })
		}
		t.Comm += time.Since(t2)
	})
	return om, vec, t
}

// Product implements cowichan.Impl.
func (im *Impl) Product(m *cowichan.FMatrix, v cowichan.Vector) (cowichan.Vector, cowichan.Timing) {
	var t cowichan.Timing
	out := make(cowichan.Vector, m.N)
	im.kernel(m.N, func(ss []*core.Session, ranges [][2]int) {
		t0 := time.Now()
		for w, r := range ranges {
			w, r := w, r
			sh := im.shards[w]
			vc := append([]float64(nil), v...)
			ss[w].Call(func() {
				sh.lo, sh.hi, sh.n = r[0], r[1], m.N
				sh.fvec = vc
				sh.frows = make([][]float64, 0, r[1]-r[0])
			})
			for i := r[0]; i < r[1]; i++ {
				rc := append([]float64(nil), m.Row(i)...)
				ss[w].Call(func() { sh.frows = append(sh.frows, rc) })
			}
		}
		t.Comm += time.Since(t0)

		t1 := time.Now()
		for w := range ranges {
			sh := im.shards[w]
			ss[w].Call(func() {
				seg := make([]float64, len(sh.frows))
				for k, row := range sh.frows {
					seg[k] = cowichan.DotRow(row, sh.fvec)
				}
				sh.fvec = seg // reuse fvec to hold the result segment
			})
		}
		barrier(ss)
		t.Compute += time.Since(t1)

		t2 := time.Now()
		for w, r := range ranges {
			sh := im.shards[w]
			pull(im, ss[w], r[1]-r[0],
				func(k int) float64 { return sh.fvec[k] },
				func(k int, v float64) { out[r[0]+k] = v })
		}
		t.Comm += time.Since(t2)
	})
	return out, t
}
