// Package tbbimpl implements the Cowichan kernels with the parallel
// skeletons of internal/sched: ParallelFor over row ranges,
// ParallelReduce for the histogram, ParallelSort for winnow. This is
// the "cxx" (C++/TBB) comparator of the paper's language study — the
// unguarded shared-memory performance ceiling. Its chunks are
// self-scheduled, not stolen: the caller and helper tasks on the
// executor claim them from one counter, on the same scheduler that
// serves the Qs handler runtime, so data-parallel kernels and handler
// traffic can share one worker pool.
//
// Frozen: this package exists only for the language columns of the
// paper's Tables 3–5 and Figs. 18–20 (internal/harness). It gets no new
// features and is excluded from the benchmark's ladder claims.
package tbbimpl

import (
	"time"

	"scoopqs/internal/cowichan"
	"scoopqs/internal/sched"
)

// Impl runs the kernels on a private instance of the unified executor.
type Impl struct {
	exec  *sched.Executor
	grain int
}

// New creates an implementation backed by an executor of the given
// worker count.
func New(workers int) *Impl {
	return &Impl{exec: sched.NewExecutor(workers), grain: 8}
}

// Name implements cowichan.Impl.
func (*Impl) Name() string { return "cxx" }

// Close implements cowichan.Impl.
func (im *Impl) Close() { im.exec.Stop() }

// Randmat implements cowichan.Impl.
func (im *Impl) Randmat(p cowichan.Params) (*cowichan.Matrix, cowichan.Timing) {
	start := time.Now()
	m := cowichan.NewMatrix(p.NR)
	sched.ParallelFor(im.exec, 0, p.NR, im.grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cowichan.FillRow(m.Row(i), p.Seed, i)
		}
	})
	return m, cowichan.Timing{Compute: time.Since(start)}
}

// Thresh implements cowichan.Impl.
func (im *Impl) Thresh(m *cowichan.Matrix, pct int) (*cowichan.Mask, cowichan.Timing) {
	start := time.Now()
	hist := sched.ParallelReduce(im.exec, 0, m.N, im.grain,
		func(lo, hi int) []int {
			h := make([]int, cowichan.MaxValue)
			for _, v := range m.A[lo*m.N : hi*m.N] {
				h[v]++
			}
			return h
		},
		func(a, b []int) []int {
			for v := range a {
				a[v] += b[v]
			}
			return a
		})
	cut := cowichan.ThresholdFromHist(hist, len(m.A), pct)
	mask := cowichan.NewMask(m.N)
	sched.ParallelFor(im.exec, 0, m.N, im.grain, func(lo, hi int) {
		for k := lo * m.N; k < hi*m.N; k++ {
			mask.B[k] = m.A[k] >= cut
		}
	})
	return mask, cowichan.Timing{Compute: time.Since(start)}
}

// Winnow implements cowichan.Impl.
func (im *Impl) Winnow(m *cowichan.Matrix, mask *cowichan.Mask, nw int) ([]cowichan.Point, cowichan.Timing) {
	start := time.Now()
	pts := sched.ParallelReduce(im.exec, 0, m.N, im.grain,
		func(lo, hi int) []cowichan.Point { return cowichan.CollectPoints(m, mask, lo, hi) },
		func(a, b []cowichan.Point) []cowichan.Point { return append(a, b...) })
	sched.ParallelSort(im.exec, pts, func(a, b cowichan.Point) bool { return a.Less(b) })
	sel := cowichan.SelectPoints(pts, nw)
	return sel, cowichan.Timing{Compute: time.Since(start)}
}

// Outer implements cowichan.Impl.
func (im *Impl) Outer(pts []cowichan.Point) (*cowichan.FMatrix, cowichan.Vector, cowichan.Timing) {
	start := time.Now()
	n := len(pts)
	om := cowichan.NewFMatrix(n)
	vec := make(cowichan.Vector, n)
	sched.ParallelFor(im.exec, 0, n, im.grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cowichan.OuterRow(om.Row(i), pts, i)
			vec[i] = cowichan.OriginDistance(pts[i])
		}
	})
	return om, vec, cowichan.Timing{Compute: time.Since(start)}
}

// Product implements cowichan.Impl.
func (im *Impl) Product(m *cowichan.FMatrix, v cowichan.Vector) (cowichan.Vector, cowichan.Timing) {
	start := time.Now()
	out := make(cowichan.Vector, m.N)
	sched.ParallelFor(im.exec, 0, m.N, im.grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = cowichan.DotRow(m.Row(i), v)
		}
	})
	return out, cowichan.Timing{Compute: time.Since(start)}
}
