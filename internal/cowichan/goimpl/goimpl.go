// Package goimpl implements the Cowichan kernels in idiomatic Go:
// a fixed set of worker goroutines pull row ranges from a channel and
// write results into shared output arrays. This is the "go" comparator
// of the paper's language study — shared memory, channel-coordinated,
// no safety guarantees beyond convention.
//
// Frozen: this package exists only for the language columns of the
// paper's Tables 3–5 and Figs. 18–20 (internal/harness). It gets no new
// features and is excluded from the benchmark's ladder claims.
package goimpl

import (
	"sort"
	"sync"
	"time"

	"scoopqs/internal/cowichan"
)

// Impl is the goroutines+channels implementation.
type Impl struct {
	workers int
}

// New returns an implementation using the given number of worker
// goroutines (minimum 1).
func New(workers int) *Impl {
	if workers < 1 {
		workers = 1
	}
	return &Impl{workers: workers}
}

// Name implements cowichan.Impl.
func (*Impl) Name() string { return "go" }

// Close implements cowichan.Impl.
func (*Impl) Close() {}

// parallelRows fans row ranges out over a channel to worker goroutines
// and waits for completion. Ranges are finer than the worker count so
// the channel provides dynamic load balancing.
func (im *Impl) parallelRows(n int, body func(lo, hi int)) {
	ranges := cowichan.SplitRows(n, im.workers*4)
	ch := make(chan [2]int, len(ranges))
	for _, r := range ranges {
		ch <- r
	}
	close(ch)
	var wg sync.WaitGroup
	for w := 0; w < im.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range ch {
				body(r[0], r[1])
			}
		}()
	}
	wg.Wait()
}

// Randmat implements cowichan.Impl.
func (im *Impl) Randmat(p cowichan.Params) (*cowichan.Matrix, cowichan.Timing) {
	start := time.Now()
	m := cowichan.NewMatrix(p.NR)
	im.parallelRows(p.NR, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cowichan.FillRow(m.Row(i), p.Seed, i)
		}
	})
	return m, cowichan.Timing{Compute: time.Since(start)}
}

// Thresh implements cowichan.Impl.
func (im *Impl) Thresh(m *cowichan.Matrix, pct int) (*cowichan.Mask, cowichan.Timing) {
	start := time.Now()
	// Per-worker histograms merged over a channel.
	hists := make(chan []int, im.workers*4)
	im.parallelRows(m.N, func(lo, hi int) {
		h := make([]int, cowichan.MaxValue)
		for _, v := range m.A[lo*m.N : hi*m.N] {
			h[v]++
		}
		hists <- h
	})
	close(hists)
	hist := make([]int, cowichan.MaxValue)
	for h := range hists {
		for v, c := range h {
			hist[v] += c
		}
	}
	cut := cowichan.ThresholdFromHist(hist, len(m.A), pct)
	mask := cowichan.NewMask(m.N)
	im.parallelRows(m.N, func(lo, hi int) {
		for k := lo * m.N; k < hi*m.N; k++ {
			mask.B[k] = m.A[k] >= cut
		}
	})
	return mask, cowichan.Timing{Compute: time.Since(start)}
}

// Winnow implements cowichan.Impl.
func (im *Impl) Winnow(m *cowichan.Matrix, mask *cowichan.Mask, nw int) ([]cowichan.Point, cowichan.Timing) {
	start := time.Now()
	type chunk struct {
		lo  int
		pts []cowichan.Point
	}
	out := make(chan chunk, im.workers*4)
	im.parallelRows(m.N, func(lo, hi int) {
		out <- chunk{lo: lo, pts: cowichan.CollectPoints(m, mask, lo, hi)}
	})
	close(out)
	chunks := make([]chunk, 0, im.workers*4)
	total := 0
	for c := range out {
		chunks = append(chunks, c)
		total += len(c.pts)
	}
	// Reassemble in row order (chunks arrive unordered), then sort.
	sort.Slice(chunks, func(a, b int) bool { return chunks[a].lo < chunks[b].lo })
	pts := make([]cowichan.Point, 0, total)
	for _, c := range chunks {
		pts = append(pts, c.pts...)
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].Less(pts[b]) })
	sel := cowichan.SelectPoints(pts, nw)
	return sel, cowichan.Timing{Compute: time.Since(start)}
}

// Outer implements cowichan.Impl.
func (im *Impl) Outer(pts []cowichan.Point) (*cowichan.FMatrix, cowichan.Vector, cowichan.Timing) {
	start := time.Now()
	n := len(pts)
	om := cowichan.NewFMatrix(n)
	vec := make(cowichan.Vector, n)
	im.parallelRows(n, func(lo, hi int) {
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
	im.parallelRows(m.N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = cowichan.DotRow(m.Row(i), v)
		}
	})
	return out, cowichan.Timing{Compute: time.Since(start)}
}
