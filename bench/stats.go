package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastest returns the mean of the fastest fifth of xs (at least one
// value): the time the work takes when the host leaves it alone. On the
// shared hosts this benchmark runs on, interference only ever adds time,
// in bursts shorter than a rep, so the slow tail of a task's reps
// belongs to the host and the fast tail to the program; the median of
// the reps moved by 25–35 % between runs of the same code, the fastest
// fifth by a third of that (README "Repeatability"). A fifth, not the
// single fastest rep: a rep in which the scheduler happened to keep both
// parties on one core is faster than the program ever is on two.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[:max(len(s)/5, 1)]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the acceptance rule for run-to-run spread is written against.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		d := k*(n+1) - j*4 // outside 0..4 when clamped: extrapolates, as Python does
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	if len(s) < 2 {
		return median(s), median(s)
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// geomean is the geometric mean of positive values, the aggregation the
// paper's Table 5 uses across tasks; 0 if xs is empty or has a
// non-positive entry.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// percentile returns the q-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// highestSupported picks the highest of the ladder 0.9, 0.99, 0.999, …
// that still has at least ten samples beyond it, so a tail percentile
// is never one or two outliers. ok is false below 100 samples.
func highestSupported(n int) (q float64, ok bool) {
	miss := 0.1
	for n > 0 && float64(n)*miss >= 10 {
		q, ok = 1-miss, true
		miss /= 10
	}
	return q, ok
}

// dist is a latency distribution summarised for reporting.
type dist struct {
	N        int
	P50, P99 int64
	Max      int64
	TopQ     float64 // highest percentile with ≥10 samples beyond it
	TopV     int64
}

// summarize sorts ns in place and extracts the reported percentiles.
func summarize(ns []int64) dist {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	d := dist{N: len(ns)}
	if len(ns) == 0 {
		return d
	}
	d.P50, d.P99, d.Max = percentile(ns, 0.5), percentile(ns, 0.99), ns[len(ns)-1]
	if q, ok := highestSupported(len(ns)); ok {
		d.TopQ, d.TopV = q, percentile(ns, q)
	}
	return d
}

// opsPerSecond is Σ ops ÷ Σ rep seconds over the given tasks — total
// work over total time, so a slow task weighs by its time and not by
// its count.
func opsPerSecond(rs []*taskResult) float64 {
	var ops, secs float64
	for _, r := range rs {
		ops += float64(r.task.ops)
		secs += r.seconds()
	}
	return ratio(ops, secs)
}

// nsPerOpGeomean is the geometric mean over tasks of ns per op.
func nsPerOpGeomean(rs []*taskResult) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, r.seconds()*1e9/float64(r.task.ops))
	}
	return geomean(xs)
}

// mallocs reads the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM),
// falling back to the Go runtime's Sys figure off Linux.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
