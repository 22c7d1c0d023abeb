// Package harness regenerates the tables and figures of the paper's
// evaluation (Tables 1–5, Figs. 16–20, the §4.5 EVE/Qs comparison and
// the geometric-mean summaries) and renders them as text. Experiments
// lists them; cmd/qsbench is the command-line driver. Everything the
// repo measures about itself beyond the paper lives in bench/.
package harness

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"scoopqs/internal/concbench"
	"scoopqs/internal/core"
	"scoopqs/internal/cowichan"
)

// Options configure an experiment run.
type Options struct {
	// Out receives the rendered tables.
	Out io.Writer
	// Reps is the number of repetitions per measurement; the median is
	// reported.
	Reps int
	// Workers is the worker/handler count for parallel kernels at full
	// width.
	Workers int
	// Configs restricts the optimization-sweep experiments (Table 1/2,
	// Fig. 16/17, Summary) to these columns; nil means the paper's
	// five.
	Configs []core.Config
	// Cores is the thread-count sweep for Fig. 19 / Table 4.
	Cores []int
	// Cow are the Cowichan problem sizes.
	Cow cowichan.Params
	// Conc are the coordination benchmark sizes.
	Conc concbench.Params
}

// Experiment is one table or figure of the paper's evaluation.
type Experiment struct {
	Name string
	Run  func(Options)
}

// Experiments lists every experiment in the paper's presentation
// order — the run order of "all" and the only registry of names.
var Experiments = []Experiment{
	{"table1", Options.Table1},
	{"fig16", Options.Fig16},
	{"table2", Options.Table2},
	{"fig17", Options.Fig17},
	{"table3", Options.Table3},
	{"fig18", Options.Fig18},
	{"fig19", Options.Fig19},
	{"table4", Options.Table4},
	{"table5", Options.Table5},
	{"fig20", Options.Fig20},
	{"eve", Options.Eve},
	{"summary", Options.Summary},
}

// Defaults returns laptop-scale options writing to w.
func Defaults(w io.Writer) Options {
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2
	}
	cores := []int{1, 2, 4}
	if workers > 4 {
		cores = append(cores, workers)
	}
	return Options{
		Out:     w,
		Reps:    3,
		Workers: workers,
		Cores:   cores,
		Cow:     cowichan.SmallParams(),
		Conc:    concbench.SmallParams(),
	}
}

// median returns the median of ds (ds is sorted in place).
func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// MeasureTiming runs f Reps times and returns the run with the median
// total time.
func (o Options) MeasureTiming(f func() cowichan.Timing) cowichan.Timing {
	reps := o.Reps
	if reps < 1 {
		reps = 1
	}
	ts := make([]cowichan.Timing, reps)
	totals := make([]time.Duration, reps)
	for i := range ts {
		ts[i] = f()
		totals[i] = ts[i].Total()
	}
	med := median(append([]time.Duration(nil), totals...))
	for i := range ts {
		if ts[i].Total() == med {
			return ts[i]
		}
	}
	return ts[0]
}

// MeasureWall times f (median of Reps runs).
func (o Options) MeasureWall(f func()) time.Duration {
	reps := o.Reps
	if reps < 1 {
		reps = 1
	}
	ds := make([]time.Duration, reps)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = time.Since(start)
	}
	return median(ds)
}

// GeoMean returns the geometric mean of strictly positive durations
// (zero values are clamped to 1µs so a fast machine cannot produce a
// degenerate mean).
func GeoMean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range ds {
		s := d.Seconds()
		if s <= 0 {
			s = 1e-6
		}
		sum += math.Log(s)
	}
	return time.Duration(math.Exp(sum/float64(len(ds))) * float64(time.Second))
}

// Seconds renders a duration as seconds with three decimals.
func Seconds(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

// Ratio renders v/base with two decimals; base 0 renders "-".
func Ratio(v, base time.Duration) string {
	if base <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(v)/float64(base))
}

// table is a minimal text-table builder on tabwriter.
type table struct {
	w *tabwriter.Writer
}

func newTable(out io.Writer) *table {
	return &table{w: tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...string) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		fmt.Fprint(t.w, c)
	}
	fmt.Fprintln(t.w)
}

func (t *table) flush() { t.w.Flush() } //nolint:errcheck // terminal output

// section prints an experiment header.
func section(w io.Writer, title, caption string) {
	fmt.Fprintf(w, "\n== %s ==\n%s\n\n", title, caption)
}
