// Package pureimpl implements the Cowichan kernels in the
// pure-functional style of Haskell's par strategies: workers compute
// freshly allocated immutable chunks in parallel, and the main thread
// concatenates them sequentially into the final structure. The
// sequential concatenation is exactly the bottleneck the paper
// identifies for Haskell's randmat ("chunks of the output array
// constructed in parallel, then concatenated together; the
// concatenation is sequential, putting a limit on the maximum
// speedup"). This is the "haskell" comparator for the parallel tasks.
//
// Frozen: this package exists only for the language columns of the
// paper's Tables 3–5 and Figs. 18–20 (internal/harness). It gets no new
// features and is excluded from the benchmark's ladder claims.
package pureimpl

import (
	"sort"
	"sync"
	"time"

	"scoopqs/internal/cowichan"
)

// Impl is the chunk-and-concatenate implementation.
type Impl struct {
	workers int
}

// New returns an implementation using the given degree of parallelism.
func New(workers int) *Impl {
	if workers < 1 {
		workers = 1
	}
	return &Impl{workers: workers}
}

// Name implements cowichan.Impl.
func (*Impl) Name() string { return "haskell" }

// Close implements cowichan.Impl.
func (*Impl) Close() {}

// parChunks evaluates one freshly allocated value per row range in
// parallel ("par") and returns them in range order for the sequential
// combine.
func parChunks[T any](workers, n int, leaf func(lo, hi int) T) []T {
	ranges := cowichan.SplitRows(n, workers)
	out := make([]T, len(ranges))
	var wg sync.WaitGroup
	for k, r := range ranges {
		k, r := k, r
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[k] = leaf(r[0], r[1])
		}()
	}
	wg.Wait()
	return out
}

// Randmat implements cowichan.Impl: parallel row-chunk construction,
// sequential concatenation into the matrix.
func (im *Impl) Randmat(p cowichan.Params) (*cowichan.Matrix, cowichan.Timing) {
	start := time.Now()
	type chunk struct {
		lo   int
		rows [][]int32
	}
	chunks := parChunks(im.workers, p.NR, func(lo, hi int) chunk {
		rows := make([][]int32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			row := make([]int32, p.NR)
			cowichan.FillRow(row, p.Seed, i)
			rows = append(rows, row)
		}
		return chunk{lo: lo, rows: rows}
	})
	// Sequential concat: copy every freshly built row into the result.
	m := cowichan.NewMatrix(p.NR)
	for _, c := range chunks {
		for k, row := range c.rows {
			copy(m.Row(c.lo+k), row)
		}
	}
	return m, cowichan.Timing{Compute: time.Since(start)}
}

// Thresh implements cowichan.Impl.
func (im *Impl) Thresh(m *cowichan.Matrix, pct int) (*cowichan.Mask, cowichan.Timing) {
	start := time.Now()
	hists := parChunks(im.workers, m.N, func(lo, hi int) []int {
		h := make([]int, cowichan.MaxValue)
		for _, v := range m.A[lo*m.N : hi*m.N] {
			h[v]++
		}
		return h
	})
	hist := make([]int, cowichan.MaxValue)
	for _, h := range hists {
		for v, c := range h {
			hist[v] += c
		}
	}
	cut := cowichan.ThresholdFromHist(hist, len(m.A), pct)
	maskChunks := parChunks(im.workers, m.N, func(lo, hi int) []bool {
		b := make([]bool, (hi-lo)*m.N)
		for k, v := range m.A[lo*m.N : hi*m.N] {
			b[k] = v >= cut
		}
		return b
	})
	mask := cowichan.NewMask(m.N)
	at := 0
	for _, b := range maskChunks {
		copy(mask.B[at:], b)
		at += len(b)
	}
	return mask, cowichan.Timing{Compute: time.Since(start)}
}

// Winnow implements cowichan.Impl: parallel per-chunk point collection
// and sorting, sequential k-way concatenation plus merge-by-sort.
func (im *Impl) Winnow(m *cowichan.Matrix, mask *cowichan.Mask, nw int) ([]cowichan.Point, cowichan.Timing) {
	start := time.Now()
	chunks := parChunks(im.workers, m.N, func(lo, hi int) []cowichan.Point {
		pts := cowichan.CollectPoints(m, mask, lo, hi)
		sort.Slice(pts, func(a, b int) bool { return pts[a].Less(pts[b]) })
		return pts
	})
	// Sequential merge of the sorted chunks.
	merged := chunks[0]
	for _, c := range chunks[1:] {
		merged = mergePoints(merged, c)
	}
	sel := cowichan.SelectPoints(merged, nw)
	return sel, cowichan.Timing{Compute: time.Since(start)}
}

func mergePoints(a, b []cowichan.Point) []cowichan.Point {
	out := make([]cowichan.Point, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Less(a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Outer implements cowichan.Impl.
func (im *Impl) Outer(pts []cowichan.Point) (*cowichan.FMatrix, cowichan.Vector, cowichan.Timing) {
	start := time.Now()
	n := len(pts)
	type chunk struct {
		lo   int
		rows [][]float64
		vec  []float64
	}
	chunks := parChunks(im.workers, n, func(lo, hi int) chunk {
		rows := make([][]float64, 0, hi-lo)
		vec := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			row := make([]float64, n)
			cowichan.OuterRow(row, pts, i)
			rows = append(rows, row)
			vec = append(vec, cowichan.OriginDistance(pts[i]))
		}
		return chunk{lo: lo, rows: rows, vec: vec}
	})
	om := cowichan.NewFMatrix(n)
	vec := make(cowichan.Vector, n)
	for _, c := range chunks {
		for k, row := range c.rows {
			copy(om.Row(c.lo+k), row)
		}
		copy(vec[c.lo:], c.vec)
	}
	return om, vec, cowichan.Timing{Compute: time.Since(start)}
}

// Product implements cowichan.Impl.
func (im *Impl) Product(m *cowichan.FMatrix, v cowichan.Vector) (cowichan.Vector, cowichan.Timing) {
	start := time.Now()
	type chunk struct {
		lo  int
		seg []float64
	}
	chunks := parChunks(im.workers, m.N, func(lo, hi int) chunk {
		seg := make([]float64, hi-lo)
		for i := lo; i < hi; i++ {
			seg[i-lo] = cowichan.DotRow(m.Row(i), v)
		}
		return chunk{lo: lo, seg: seg}
	})
	out := make(cowichan.Vector, m.N)
	for _, c := range chunks {
		copy(out[c.lo:], c.seg)
	}
	return out, cowichan.Timing{Compute: time.Since(start)}
}
