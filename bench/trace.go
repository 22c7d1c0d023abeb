package main

import (
	"fmt"
	"reflect"
	"time"

	"scoopqs/internal/core"
	"scoopqs/internal/cowichan"
	"scoopqs/internal/obs"
)

// The traced run (--trace 1) reports the per-layer metrics. It runs the
// workload's tasks twice — plainly, then with obs recording and the
// benchmark's own spans on — so the tracing overhead is measured in the
// same process, then climbs the ladder. Every traced run prints every
// per-layer name; a workload that never enters a layer reports that
// layer's counters as the zeros they are, and the times of tasks it
// does not run as 0 (README "Reading a zero").

// ladderReserve is the part of a traced run's time kept for the ladder.
const ladderReserve = 8 * time.Second

// taskNames lists every task whose per-mode time is a layer metric.
var taskNames = []string{
	"mutex", "threadring", "ring10k", "callstream", "fanout", "syncping",
	"condition", "prodcons", "chameneos", "boundedbuf", "santa", "turn",
}

// layerUnits names every per-layer metric with its unit. BENCHMARK.json
// lists the same names; a test keeps the two in step.
var layerUnits = func() map[string]string {
	m := map[string]string{}
	add := func(unit string, names ...string) {
		for _, n := range names {
			m[n] = unit
		}
	}
	add("ns",
		"queue.spsc_op_ns", "queue.spsc_xthread_ns", "queue.mpsc_op_ns", "queue.mpsc_contended_op_ns",
		"sched.parker_handoff_ns", "sched.dispatch_inject_ns", "sched.dispatch_local_ns",
		"sched.dispatch_wait_p50_ns", "sched.dispatch_wait_p99_ns", "sched.worker_park_p99_ns",
		"sched.parallel_for_ns_per_item",
		"core.call_dedicated_ns", "core.call_pooled_ns", "core.call_queue_wait_p50_ns", "core.call_queue_wait_p99_ns",
		"core.reserve_dedicated_ns", "core.reserve_pooled_ns",
		"core.sync_dedicated_ns", "core.sync_pooled_ns", "core.query_packaged_ns", "core.query_elided_ns",
		"core.call_future_ns", "core.sync_p50_ns", "core.sync_p99_ns", "core.separate_many_ns",
		"future.complete_ns",
		"remote.tcp_rtt_ns", "remote.pipe_rtt_ns", "remote.int_rtt_ns", "remote.call_ns",
		"remote.roundtrip_p50_ns", "remote.roundtrip_p99_ns", "remote.credit_wait_p99_ns",
		"compiler.interp_naive_ns_per_iter", "compiler.interp_coalesced_ns_per_iter",
		"bench.calib_spin_ns", "bench.span_overhead_ns",
		"bench.residual_tcp_minus_pipe_ns", "bench.residual_pipe_minus_callfuture_ns",
		"bench.residual_callfuture_minus_dispatch_ns")
	add("us",
		"core.guard_wait_p50_us", "core.guard_wait_p99_us",
		"remote.enqueue_p50_us", "remote.enqueue_p99_us", "remote.to_handler_p50_us", "remote.to_handler_p99_us",
		"remote.handler_run_p50_us", "remote.reply_path_p50_us", "remote.reply_path_p99_us",
		"compiler.coalesce_us", "compiler.interp_remote_naive_us", "compiler.interp_remote_coalesced_us",
		"bench.gen_late_p50_us", "bench.gen_late_p99_us", "bench.open_p50_us", "bench.open_p99_us", "bench.open_pmax_us")
	add("1/op",
		"queue.spsc_allocs_per_op", "queue.mpsc_allocs_per_op", "core.call_allocs_per_op",
		"core.reserve_allocs_per_op", "future.allocs_per_op", "remote.allocs_per_rtt")
	add("1/kop",
		"sched.steals_per_kop", "sched.injector_pushes_per_kop", "sched.local_pushes_per_kop",
		"sched.worker_parks_per_kop", "sched.worker_spawns_per_kop", "sched.task_steals_per_kop",
		"core.schedules_per_kop", "core.handler_parks_per_kop", "core.guard_retries_per_kop",
		"core.multi_res_per_kop", "core.await_parks_per_kop",
		"remote.credit_stalls_per_kop", "remote.writer_stalls_per_kop", "remote.frames_parked_per_kop")
	add("ratio",
		"sched.steal_hit_ratio", "core.sessions_reused_ratio", "core.syncs_elided_ratio", "core.guard_retry_ratio",
		"remote.slab_reuse_ratio", "obs.trace_overhead_ratio", "bench.open_rate_share", "bench.phase_sum_gap_ratio")
	add("count",
		"remote.frames_per_flush", "remote.window_resizes", "remote.slabs_in_use_end",
		"compiler.roundtrips_naive", "compiler.roundtrips_coalesced")
	add("B", "remote.bytes_per_flush_p50", "remote.payload_bytes_per_op")
	add("1/s", "obs.events_per_s", "bench.goodput_per_s")
	add("s",
		"cowichan.randmat_s", "cowichan.thresh_s", "cowichan.winnow_s", "cowichan.outer_s", "cowichan.product_s",
		"cowichan.compute_s", "cowichan.comm_s", "cowichan.comm_pooled_s")
	for _, t := range taskNames {
		add("s", "concbench."+t+"_dedicated_s", "concbench."+t+"_pooled_s")
	}
	return m
}()

// newLayerReport starts every per-layer metric at zero.
func newLayerReport() *report {
	rep := newReport()
	for name, unit := range layerUnits {
		rep.set(name, 0, unit)
	}
	return rep
}

// layer sets a per-layer metric, refusing a name BENCHMARK.json lacks.
func (r *report) layer(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("bench: undeclared per-layer metric " + name) // a bug in this package only
	}
	r.set(name, v, unit)
}

// statsOp combines two core.Stats field by field.
func statsOp(a, b core.Stats, op func(x, y int64) int64) core.Stats {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(op(va.Field(i).Int(), vb.Field(i).Int()))
	}
	return a
}

func addStats(a, b core.Stats) core.Stats {
	return statsOp(a, b, func(x, y int64) int64 { return x + y })
}

func subStats(a, b core.Stats) core.Stats {
	return statsOp(a, b, func(x, y int64) int64 { return x - y })
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// statLayers fills the counter metrics from a runtime's counter delta
// over ops operations.
func (r *report) statLayers(d core.Stats, ops int64) {
	kop := func(n int64) float64 { return ratio(float64(n)*1000, float64(ops)) }
	r.layer("sched.steals_per_kop", kop(d.Steals))
	r.layer("sched.injector_pushes_per_kop", kop(d.InjectorPushes))
	r.layer("sched.local_pushes_per_kop", kop(d.LocalPushes))
	r.layer("sched.worker_parks_per_kop", kop(d.WorkerParks))
	r.layer("sched.worker_spawns_per_kop", kop(d.WorkerSpawns))
	r.layer("sched.task_steals_per_kop", kop(d.TaskSteals))
	r.layer("core.schedules_per_kop", kop(d.Schedules))
	r.layer("core.handler_parks_per_kop", kop(d.HandlerParks))
	r.layer("core.guard_retries_per_kop", kop(d.GuardRetries))
	r.layer("core.multi_res_per_kop", kop(d.MultiResGroups))
	r.layer("core.await_parks_per_kop", kop(d.AwaitParks))
	r.layer("core.sessions_reused_ratio", ratio(float64(d.SessionsReused), float64(d.SessionsReused+d.SessionsNew)))
	r.layer("core.syncs_elided_ratio", ratio(float64(d.SyncsElided), float64(d.SyncsElided+d.SyncsPerformed)))
	// Every SeparateWhen attempt is one multi-reservation; the failed
	// ones are the wasted work.
	r.layer("core.guard_retry_ratio", ratio(float64(d.GuardRetries), float64(d.MultiResGroups)))
}

// obsSection is what the obs registry recorded between begin and end.
type obsSection struct {
	t0      time.Time
	emitted int64
}

func obsBegin() obsSection {
	obs.ResetAll()
	obs.Enable()
	return obsSection{t0: time.Now(), emitted: obs.Emitted()}
}

// end stops recording and fills the histogram and counter metrics.
func (s obsSection) end(r *report) {
	obs.Disable()
	secs := time.Since(s.t0).Seconds()
	events := obs.Emitted() - s.emitted
	hists := map[string]obs.HistSnap{}
	for _, h := range obs.Default().Snapshot() {
		hists[h.Name] = h
	}
	q := func(name string, quantile float64) float64 {
		h := hists[name]
		return float64(h.Quantile(quantile))
	}
	r.layer("sched.dispatch_wait_p50_ns", q("sched.dispatch_wait_ns", 0.5))
	r.layer("sched.dispatch_wait_p99_ns", q("sched.dispatch_wait_ns", 0.99))
	r.layer("sched.worker_park_p99_ns", q("sched.worker_park_ns", 0.99))
	r.layer("core.sync_p50_ns", q("core.sync_ns", 0.5))
	r.layer("core.sync_p99_ns", q("core.sync_ns", 0.99))
	r.layer("core.guard_wait_p50_us", q("core.guard_wait_ns", 0.5)/1e3)
	r.layer("core.guard_wait_p99_us", q("core.guard_wait_ns", 0.99)/1e3)
	r.layer("remote.roundtrip_p50_ns", q("remote.roundtrip_ns", 0.5))
	r.layer("remote.roundtrip_p99_ns", q("remote.roundtrip_ns", 0.99))
	r.layer("remote.credit_wait_p99_ns", q("remote.credit_wait_ns", 0.99))
	r.layer("remote.bytes_per_flush_p50", q("remote.flush_bytes", 0.5))
	ctr := obs.Default().Counters()
	r.layer("sched.steal_hit_ratio", ratio(float64(ctr["sched.steal_hits"]), float64(ctr["sched.steal_attempts"])))
	r.layer("obs.events_per_s", ratio(float64(events), secs))
	samples := map[string]int64{}
	for name, h := range hists {
		samples[name] = h.Count
	}
	r.detail["obs_histogram_samples"] = samples
}

// tracedTasks runs the tasks plainly and then traced, half the budget
// each, and reports the per-task times of the traced reps and the
// overhead ratio. setTracing switches the benchmark's own span
// recording; the obs registry is switched here.
func tracedTasks(c *runCtx, rep *report, tasks []*task, budget time.Duration, setTracing func(bool)) (plain, traced []*taskResult, sec obsSection) {
	setTracing(false)
	plain = runRounds(tasks, budget/2, tracedMinReps, nil)
	setTracing(true)
	sec = obsBegin()
	traced = runRounds(tasks, budget/2, tracedMinReps, c.tr)
	setTracing(false)
	fmt.Println(" plain:")
	printResults(plain)
	fmt.Println(" traced:")
	printResults(traced)
	var tp, tt float64
	for i := range plain {
		tp += plain[i].seconds()
		tt += traced[i].seconds()
	}
	rep.layer("obs.trace_overhead_ratio", ratio(tt, tp))
	for _, r := range traced {
		if name := "concbench." + r.task.id() + "_s"; layerUnits[name] != "" {
			rep.layer(name, r.seconds())
		}
	}
	rep.taskDetail(traced)
	a1, f1 := tally(plain)
	a2, f2 := tally(traced)
	rep.attempted, rep.failed = rep.attempted+a1+a2, rep.failed+f1+f2
	return plain, traced, sec
}

// taskBudget is what a traced run leaves its tasks after the ladder.
func taskBudget(c *runCtx) time.Duration {
	return max(c.budget-ladderReserve, c.budget/4)
}

// finishTraced writes the span file and climbs the ladder.
func finishTraced(c *runCtx, rep *report, workload string) (*report, error) {
	spans := c.tr.all()
	path, err := writeSpans(c.outDir, workload, spans)
	if err != nil {
		return nil, err
	}
	self := selfTimes(spans)
	byLayer := map[string]int64{}
	for _, s := range spans {
		byLayer[s.Layer] += self[s.ID]
	}
	fmt.Printf("  %d spans written to %s; self time by layer (ns): %v\n", len(spans), path, byLayer)
	rep.detail["span_file"] = path
	rep.detail["span_count"] = len(spans)
	rep.detail["self_time_ns_by_layer"] = byLayer
	// The ladder's iteration counts are constants and take about 8 s; the
	// tests' scaled-down runs leave it out.
	if c.scale == 1 {
		if err := climb(rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func tracedHandoff(c *runCtx, st *handoffState) (*report, error) {
	rep := newLayerReport()
	setTracing := func(on bool) {
		for _, s := range st.streams {
			s.tracing = on
		}
	}
	s0 := st.streamStats()
	plain, traced, sec := tracedTasks(c, rep, st.tasks, taskBudget(c), setTracing)
	sec.end(rep)
	// The counters are those of the benchmark's own tasks — concbench
	// keeps its runtimes to itself — over both halves of the run.
	var ownOps int64
	for _, r := range append(plain, traced...) {
		if r.task.layer == "core" {
			ownOps += r.task.ops * int64(len(r.secs))
		}
	}
	rep.statLayers(subStats(st.streamStats(), s0), ownOps)
	waits := summarize(st.allWaits())
	rep.layer("core.call_queue_wait_p50_ns", float64(waits.P50))
	rep.layer("core.call_queue_wait_p99_ns", float64(waits.P99))
	rep.detail["core.call_queue_wait_samples"] = waits.N
	return finishTraced(c, rep, "handoff")
}

func tracedGuard(c *runCtx, st *guardState) (*report, error) {
	rep := newLayerReport()
	_, _, sec := tracedTasks(c, rep, st.tasks, taskBudget(c), func(bool) {})
	sec.end(rep)
	// boundedbuf and santa return their runtimes' counters: the guard
	// traffic per operation of the tasks that wait the most.
	rep.statLayers(st.stats, st.statOps)
	return finishTraced(c, rep, "guard")
}

func tracedChain(c *runCtx, st *chainState) (*report, error) {
	rep := newLayerReport()
	for id, ct := range st.chains {
		ct.traceKernels(c.tr, id == "chain_dedicated")
	}
	setTracing := func(on bool) {
		for _, ct := range st.chains {
			ct.tracing = on
		}
	}
	var s0 core.Stats
	for _, ct := range st.chains {
		s0 = addStats(s0, ct.im.Runtime().Stats())
	}
	plain, traced, sec := tracedTasks(c, rep, st.tasks, taskBudget(c), setTracing)
	sec.end(rep)
	var s1 core.Stats
	for _, ct := range st.chains {
		s1 = addStats(s1, ct.im.Runtime().Stats())
	}
	a1, _ := tally(plain)
	a2, _ := tally(traced)
	rep.statLayers(subStats(s1, s0), a1+a2)

	ded, pool := st.chains["chain_dedicated"], st.chains["chain_pooled"]
	for name, secs := range ded.kernelSecs {
		rep.layer("cowichan."+name+"_s", median(secs))
	}
	rep.layer("cowichan.compute_s", medianDur(ded.timings, func(t cowichan.Timing) time.Duration { return t.Compute }))
	rep.layer("cowichan.comm_s", medianDur(ded.timings, func(t cowichan.Timing) time.Duration { return t.Comm }))
	rep.layer("cowichan.comm_pooled_s", medianDur(pool.timings, func(t cowichan.Timing) time.Duration { return t.Comm }))
	return finishTraced(c, rep, "chain")
}
