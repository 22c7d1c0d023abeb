// Package actorimpl implements the Cowichan kernels on the actor
// runtime of internal/actor: a coordinator actor sends each worker its
// input slice as a deep-copied message and receives deep-copied
// results back. All inter-actor data transfer pays the full copy, the
// defining communication burden the paper measures for Erlang on these
// problems. This is the "erlang" comparator.
//
// Timing model: workers report their pure compute time inside the
// reply; the kernel's Comm time is the wall time minus the maximum
// worker compute time (phases overlap), matching the paper's
// computation/communication split for Erlang.
//
// Frozen: this package exists only for the language columns of the
// paper's Tables 3–5 and Figs. 18–20 (internal/harness). It gets no new
// features and is excluded from the benchmark's ladder claims.
package actorimpl

import (
	"sort"
	"time"

	"scoopqs/internal/actor"
	"scoopqs/internal/cowichan"
)

// Impl is the actor-based implementation.
type Impl struct {
	workers int
}

// New returns an implementation with the given number of worker actors
// per kernel.
func New(workers int) *Impl {
	if workers < 1 {
		workers = 1
	}
	return &Impl{workers: workers}
}

// Name implements cowichan.Impl.
func (*Impl) Name() string { return "erlang" }

// Close implements cowichan.Impl.
func (*Impl) Close() {}

// Message types. All fields exported: messages must be plain data.

// RandmatJob asks a worker to generate rows [Lo, Hi).
type RandmatJob struct {
	Lo, Hi, N int
	Seed      uint32
	ReplyTo   *actor.Ref
}

// RowsResult returns generated or computed int32 rows.
type RowsResult struct {
	Lo      int
	Rows    [][]int32
	Elapsed time.Duration
}

// HistJob carries matrix rows to histogram.
type HistJob struct {
	Rows    [][]int32
	ReplyTo *actor.Ref
}

// HistResult returns a value histogram.
type HistResult struct {
	Hist    []int
	Elapsed time.Duration
}

// MaskJob carries rows plus the threshold cutoff.
type MaskJob struct {
	Lo      int
	Rows    [][]int32
	Cut     int32
	ReplyTo *actor.Ref
}

// MaskResult returns mask rows.
type MaskResult struct {
	Lo      int
	Rows    [][]bool
	Elapsed time.Duration
}

// WinnowJob carries matrix and mask rows for point collection.
type WinnowJob struct {
	Lo      int
	Rows    [][]int32
	Mask    [][]bool
	ReplyTo *actor.Ref
}

// PointsResult returns collected, locally sorted points.
type PointsResult struct {
	Lo      int
	Pts     []cowichan.Point
	Elapsed time.Duration
}

// OuterJob carries the full point list plus a row range to compute.
type OuterJob struct {
	Lo, Hi  int
	Pts     []cowichan.Point
	ReplyTo *actor.Ref
}

// OuterResult returns distance-matrix rows and the vector segment.
type OuterResult struct {
	Lo      int
	Rows    [][]float64
	Vec     []float64
	Elapsed time.Duration
}

// ProductJob carries matrix rows and the vector.
type ProductJob struct {
	Lo   int
	Rows [][]float64
	Vec  []float64

	ReplyTo *actor.Ref
}

// ProductResult returns a result-vector segment.
type ProductResult struct {
	Lo      int
	Seg     []float64
	Elapsed time.Duration
}

// coordinate runs body inside a coordinator actor and waits for it.
func coordinate(body func(c *actor.Ctx)) {
	actor.Spawn(body).Join()
}

// Randmat implements cowichan.Impl.
func (im *Impl) Randmat(p cowichan.Params) (*cowichan.Matrix, cowichan.Timing) {
	start := time.Now()
	m := cowichan.NewMatrix(p.NR)
	var maxCompute time.Duration
	coordinate(func(c *actor.Ctx) {
		ranges := cowichan.SplitRows(p.NR, im.workers)
		for _, r := range ranges {
			w := actor.Spawn(func(wc *actor.Ctx) {
				job := wc.Receive().(RandmatJob)
				t0 := time.Now()
				rows := make([][]int32, 0, job.Hi-job.Lo)
				for i := job.Lo; i < job.Hi; i++ {
					row := make([]int32, job.N)
					cowichan.FillRow(row, job.Seed, i)
					rows = append(rows, row)
				}
				el := time.Since(t0)
				job.ReplyTo.Send(RowsResult{Lo: job.Lo, Rows: rows, Elapsed: el})
			})
			w.Send(RandmatJob{Lo: r[0], Hi: r[1], N: p.NR, Seed: p.Seed, ReplyTo: c.Self()})
		}
		for range ranges {
			res := c.Receive().(RowsResult)
			for k, row := range res.Rows {
				copy(m.Row(res.Lo+k), row)
			}
			if res.Elapsed > maxCompute {
				maxCompute = res.Elapsed
			}
		}
	})
	total := time.Since(start)
	return m, splitTiming(total, maxCompute)
}

// Thresh implements cowichan.Impl.
func (im *Impl) Thresh(m *cowichan.Matrix, pct int) (*cowichan.Mask, cowichan.Timing) {
	start := time.Now()
	mask := cowichan.NewMask(m.N)
	var maxCompute time.Duration
	coordinate(func(c *actor.Ctx) {
		ranges := cowichan.SplitRows(m.N, im.workers)
		// Phase 1: histograms.
		for _, r := range ranges {
			w := actor.Spawn(func(wc *actor.Ctx) {
				job := wc.Receive().(HistJob)
				t0 := time.Now()
				h := make([]int, cowichan.MaxValue)
				for _, row := range job.Rows {
					for _, v := range row {
						h[v]++
					}
				}
				el := time.Since(t0)
				job.ReplyTo.Send(HistResult{Hist: h, Elapsed: el})
			})
			w.Send(HistJob{Rows: rowSlices(m, r[0], r[1]), ReplyTo: c.Self()})
		}
		hist := make([]int, cowichan.MaxValue)
		var phase1 time.Duration
		for range ranges {
			res := c.Receive().(HistResult)
			for v, n := range res.Hist {
				hist[v] += n
			}
			if res.Elapsed > phase1 {
				phase1 = res.Elapsed
			}
		}
		cut := cowichan.ThresholdFromHist(hist, len(m.A), pct)
		// Phase 2: masks.
		for _, r := range ranges {
			w := actor.Spawn(func(wc *actor.Ctx) {
				job := wc.Receive().(MaskJob)
				t0 := time.Now()
				rows := make([][]bool, len(job.Rows))
				for k, row := range job.Rows {
					b := make([]bool, len(row))
					for j, v := range row {
						b[j] = v >= job.Cut
					}
					rows[k] = b
				}
				el := time.Since(t0)
				job.ReplyTo.Send(MaskResult{Lo: job.Lo, Rows: rows, Elapsed: el})
			})
			w.Send(MaskJob{Lo: r[0], Rows: rowSlices(m, r[0], r[1]), Cut: cut, ReplyTo: c.Self()})
		}
		var phase2 time.Duration
		for range ranges {
			res := c.Receive().(MaskResult)
			for k, row := range res.Rows {
				copy(mask.Row(res.Lo+k), row)
			}
			if res.Elapsed > phase2 {
				phase2 = res.Elapsed
			}
		}
		maxCompute = phase1 + phase2
	})
	return mask, splitTiming(time.Since(start), maxCompute)
}

// Winnow implements cowichan.Impl.
func (im *Impl) Winnow(m *cowichan.Matrix, mask *cowichan.Mask, nw int) ([]cowichan.Point, cowichan.Timing) {
	start := time.Now()
	var sel []cowichan.Point
	var maxCompute time.Duration
	coordinate(func(c *actor.Ctx) {
		ranges := cowichan.SplitRows(m.N, im.workers)
		for _, r := range ranges {
			w := actor.Spawn(func(wc *actor.Ctx) {
				job := wc.Receive().(WinnowJob)
				t0 := time.Now()
				var pts []cowichan.Point
				for k, row := range job.Rows {
					for j, keep := range job.Mask[k] {
						if keep {
							pts = append(pts, cowichan.Point{Value: row[j], I: int32(job.Lo + k), J: int32(j)})
						}
					}
				}
				sort.Slice(pts, func(a, b int) bool { return pts[a].Less(pts[b]) })
				el := time.Since(t0)
				job.ReplyTo.Send(PointsResult{Lo: job.Lo, Pts: pts, Elapsed: el})
			})
			w.Send(WinnowJob{Lo: r[0], Rows: rowSlices(m, r[0], r[1]), Mask: maskSlices(mask, r[0], r[1]), ReplyTo: c.Self()})
		}
		chunks := make([]PointsResult, 0, len(ranges))
		for range ranges {
			res := c.Receive().(PointsResult)
			chunks = append(chunks, res)
			if res.Elapsed > maxCompute {
				maxCompute = res.Elapsed
			}
		}
		sort.Slice(chunks, func(a, b int) bool { return chunks[a].Lo < chunks[b].Lo })
		var merged []cowichan.Point
		for _, ch := range chunks {
			merged = append(merged, ch.Pts...)
		}
		sort.Slice(merged, func(a, b int) bool { return merged[a].Less(merged[b]) })
		sel = cowichan.SelectPoints(merged, nw)
	})
	return sel, splitTiming(time.Since(start), maxCompute)
}

// Outer implements cowichan.Impl.
func (im *Impl) Outer(pts []cowichan.Point) (*cowichan.FMatrix, cowichan.Vector, cowichan.Timing) {
	start := time.Now()
	n := len(pts)
	om := cowichan.NewFMatrix(n)
	vec := make(cowichan.Vector, n)
	var maxCompute time.Duration
	coordinate(func(c *actor.Ctx) {
		ranges := cowichan.SplitRows(n, im.workers)
		for _, r := range ranges {
			w := actor.Spawn(func(wc *actor.Ctx) {
				job := wc.Receive().(OuterJob)
				t0 := time.Now()
				rows := make([][]float64, 0, job.Hi-job.Lo)
				seg := make([]float64, 0, job.Hi-job.Lo)
				for i := job.Lo; i < job.Hi; i++ {
					row := make([]float64, len(job.Pts))
					cowichan.OuterRow(row, job.Pts, i)
					rows = append(rows, row)
					seg = append(seg, cowichan.OriginDistance(job.Pts[i]))
				}
				el := time.Since(t0)
				job.ReplyTo.Send(OuterResult{Lo: job.Lo, Rows: rows, Vec: seg, Elapsed: el})
			})
			w.Send(OuterJob{Lo: r[0], Hi: r[1], Pts: pts, ReplyTo: c.Self()})
		}
		for range ranges {
			res := c.Receive().(OuterResult)
			for k, row := range res.Rows {
				copy(om.Row(res.Lo+k), row)
			}
			copy(vec[res.Lo:], res.Vec)
			if res.Elapsed > maxCompute {
				maxCompute = res.Elapsed
			}
		}
	})
	return om, vec, splitTiming(time.Since(start), maxCompute)
}

// Product implements cowichan.Impl.
func (im *Impl) Product(m *cowichan.FMatrix, v cowichan.Vector) (cowichan.Vector, cowichan.Timing) {
	start := time.Now()
	out := make(cowichan.Vector, m.N)
	var maxCompute time.Duration
	coordinate(func(c *actor.Ctx) {
		ranges := cowichan.SplitRows(m.N, im.workers)
		for _, r := range ranges {
			w := actor.Spawn(func(wc *actor.Ctx) {
				job := wc.Receive().(ProductJob)
				t0 := time.Now()
				seg := make([]float64, len(job.Rows))
				for k, row := range job.Rows {
					seg[k] = cowichan.DotRow(row, job.Vec)
				}
				el := time.Since(t0)
				job.ReplyTo.Send(ProductResult{Lo: job.Lo, Seg: seg, Elapsed: el})
			})
			w.Send(ProductJob{Lo: r[0], Rows: frowSlices(m, r[0], r[1]), Vec: v, ReplyTo: c.Self()})
		}
		for range ranges {
			res := c.Receive().(ProductResult)
			copy(out[res.Lo:], res.Seg)
			if res.Elapsed > maxCompute {
				maxCompute = res.Elapsed
			}
		}
	})
	return out, splitTiming(time.Since(start), maxCompute)
}

func splitTiming(total, compute time.Duration) cowichan.Timing {
	if compute > total {
		compute = total
	}
	return cowichan.Timing{Compute: compute, Comm: total - compute}
}

// rowSlices returns views of matrix rows [lo, hi); actor.Send deep
// copies them, so the receiver never shares storage with the matrix.
func rowSlices(m *cowichan.Matrix, lo, hi int) [][]int32 {
	rows := make([][]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, m.Row(i))
	}
	return rows
}

func maskSlices(m *cowichan.Mask, lo, hi int) [][]bool {
	rows := make([][]bool, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, m.Row(i))
	}
	return rows
}

func frowSlices(m *cowichan.FMatrix, lo, hi int) [][]float64 {
	rows := make([][]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, m.Row(i))
	}
	return rows
}
