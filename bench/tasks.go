package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// minReps is the fewest timed reps a task gets even when the time
// budget is already spent.
// Each half of a traced run settles for tracedMinReps, to leave the
// ladder its time; its task times are layer metrics, not gated ones.
const (
	minReps       = 3
	tracedMinReps = 2
)

// setupRuns is how often a workload is set up in one run; the reported
// setup_s is the median, the last set-up is the one measured on.
const setupRuns = 5

// task is one timed unit of a workload in one execution mode. A rep is
// a fixed amount of work (constants in the source, identical on every
// commit); the run length only decides how many reps are taken.
type task struct {
	name  string // "mutex", "callstream", …
	mode  string // "dedicated" (Workers=0) or "pooled" (Workers=P)
	layer string // package doing the work, for the span file
	ops   int64  // operations one rep performs, as its self-check counts them
	rep   func() error
	warm  func() error // reduced-size rep, run once per set-up
}

func (t *task) id() string { return t.name + "_" + t.mode }

// taskResult keeps every rep next to the time derived from them.
type taskResult struct {
	task   *task
	secs   []float64
	allocs []float64 // heap allocations of each rep
	err    error     // first failed self-check; fails the whole task
}

// seconds is the time one rep takes on an undisturbed host (see fastest).
func (r *taskResult) seconds() float64 { return fastest(r.secs) }

// runRounds times the tasks round-robin — one rep of each per round —
// until budget is spent and every task has atLeast reps. Interleaving
// means a slow stretch of the host costs each task one rep, which
// fastest discards, instead of every rep of one task.
func runRounds(tasks []*task, budget time.Duration, atLeast int, tr *tracer) []*taskResult {
	results := make([]*taskResult, len(tasks))
	for i, t := range tasks {
		results[i] = &taskResult{task: t}
	}
	start := time.Now()
	for round := 0; ; round++ {
		for i, t := range tasks {
			if round >= atLeast && time.Since(start) >= budget {
				return results
			}
			// Collect the previous rep's garbage outside the timing, so no
			// task pays for another's and each rep starts from the same heap.
			runtime.GC()
			m0 := mallocs()
			sp := tr.begin(t.id(), t.layer, 0)
			t0 := time.Now()
			err := t.rep()
			d := time.Since(t0)
			tr.end(sp)
			results[i].secs = append(results[i].secs, d.Seconds())
			results[i].allocs = append(results[i].allocs, float64(mallocs()-m0))
			if err != nil && results[i].err == nil {
				results[i].err = err
			}
		}
	}
}

// tally sums attempted and failed operations: a failed self-check fails
// every operation of every rep of that task.
func tally(rs []*taskResult) (attempted, failed int64) {
	for _, r := range rs {
		n := r.task.ops * int64(len(r.secs))
		attempted += n
		if r.err != nil {
			failed += n
		}
	}
	return attempted, failed
}

// byMode selects the results of one execution mode.
func byMode(rs []*taskResult, mode string) []*taskResult {
	var out []*taskResult
	for _, r := range rs {
		if r.task.mode == mode {
			out = append(out, r)
		}
	}
	return out
}

// find returns the result of one task id, nil if absent.
func find(rs []*taskResult, id string) *taskResult {
	for _, r := range rs {
		if r.task.id() == id {
			return r
		}
	}
	return nil
}

// printResults lists every rep beside the reported time, with the
// sample count.
func printResults(rs []*taskResult) {
	for _, r := range rs {
		secs := r.seconds()
		status := "ok"
		if r.err != nil {
			status = "FAILED: " + r.err.Error()
		}
		fmt.Printf("  %-22s fastest fifth %.6f s  %8.1f ns/op  median %.6f s  n=%d  reps %s  %s\n",
			r.task.id(), secs, secs*1e9/float64(r.task.ops), median(r.secs), len(r.secs), fmtSecs(r.secs), status)
	}
}

func fmtSecs(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4f", x)
	}
	return s + "]"
}

// setUp builds a workload's state setupRuns times, tearing down all but
// the last, and returns the last build with every build time.
func setUp[T any](build func() (T, error), teardown func(T)) (T, []float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		st, err := build()
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil || i == setupRuns-1 {
			return st, secs, err
		}
		teardown(st)
	}
}

// warmAll runs every task's reduced-size rep once, as the last step of
// a set-up: first-use allocation and lazy initialisation are paid here.
// A self-check that fails while warming is not reported: the timed reps
// run the same check and count it.
func warmAll(tasks []*task) {
	for _, t := range tasks {
		_ = t.warm()
	}
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// allocsPerOp is Σ median allocations of a rep ÷ Σ operations of a rep
// over the tasks: like opsPerSecond, independent of how many reps each
// task happened to get.
func allocsPerOp(rs []*taskResult) float64 {
	var allocs, ops float64
	for _, r := range rs {
		allocs += median(r.allocs)
		ops += float64(r.task.ops)
	}
	return ratio(allocs, ops)
}

// setE2E fills the end-to-end metric set, the same seven names on every
// workload (README "End-to-end metrics" says what each means where).
func (r *report) setE2E(setupSecs []float64, opsPerS, dedicatedNS, pooledNS, syncUS, allocs float64) {
	r.set("setup_s", median(setupSecs), "s")
	r.set("ops_per_s", opsPerS, "1/s")
	r.set("dedicated_ns_per_op", dedicatedNS, "ns")
	r.set("pooled_ns_per_op", pooledNS, "ns")
	r.set("sync_us", syncUS, "us")
	r.set("allocs_per_op", allocs, "1/op")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	r.detail["setup_s_runs"] = setupSecs
	fmt.Printf("  setup runs %s s (median reported)\n", fmtSecs(setupSecs))
}

// taskDetail records every rep of every task for the summary file.
func (r *report) taskDetail(rs []*taskResult) {
	for _, res := range rs {
		r.detail[res.task.id()] = map[string]any{
			"ops_per_rep": res.task.ops, "samples": len(res.secs),
			"fastest_fifth_s": res.seconds(), "median_s": median(res.secs), "reps_s": res.secs, "reps_allocs": res.allocs,
		}
	}
}

// runModes is the end-to-end run of a workload made of tasks in both
// modes (handoff, guard): sync_us is the per-op time of syncTask, the
// geometric mean of its two modes.
func runModes(c *runCtx, tasks []*task, setupSecs []float64, syncTask string) *report {
	rs := runRounds(tasks, c.budget, minReps, nil)
	printResults(rs)
	rep := newReport()
	rep.attempted, rep.failed = tally(rs)
	rep.taskDetail(rs)
	sync := []*taskResult{find(rs, syncTask+"_dedicated"), find(rs, syncTask+"_pooled")}
	rep.setE2E(setupSecs, opsPerSecond(rs),
		nsPerOpGeomean(byMode(rs, "dedicated")), nsPerOpGeomean(byMode(rs, "pooled")),
		nsPerOpGeomean(sync)/1e3, allocsPerOp(rs))
	return rep
}
