package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func TestPercentiles(t *testing.T) {
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = int64(1000 - i) // unsorted on purpose: 1..1000
	}
	d := summarize(ns)
	if d.P50 != 500 || d.P99 != 990 || d.Max != 1000 || d.N != 1000 {
		t.Fatalf("summarize: got p50=%d p99=%d max=%d n=%d", d.P50, d.P99, d.Max, d.N)
	}
	// 1000 samples support p99 (10 beyond it) but not p99.9 (1 beyond).
	if d.TopQ != 0.99 || d.TopV != 990 {
		t.Fatalf("highest supported percentile: got p%g=%d, want p99=990", d.TopQ*100, d.TopV)
	}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{99, 0, false}, {100, 0.9, true}, {999, 0.9, true}, {1000, 0.99, true}, {1_000_000, 0.99999, true}} {
		q, ok := highestSupported(c.n)
		if ok != c.ok || math.Abs(q-c.want) > 1e-12 {
			t.Errorf("highestSupported(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
}

// The acceptance rule is written against Python's
// statistics.quantiles(xs, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 2, 7, 4, 40})
	if q1 != 3 || q3 != 25 {
		t.Fatalf("quartiles(10,2,7,4,40) = %v, %v; Python gives 3.0, 25.0", q1, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Name: "a", Start: 10, End: 40, Parent: 1},
		{ID: 3, Name: "b", Start: 30, End: 60, Parent: 1},  // overlaps a by 10
		{ID: 4, Name: "c", Start: 90, End: 120, Parent: 1}, // sticks out of root by 20
		{ID: 5, Name: "leaf", Start: 12, End: 20, Parent: 2},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - (30 + 20 + 10), 2: 30 - 8, 3: 30, 4: 30, 5: 8}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerParents(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer", "bench", 0)
	if tr.currentID() != outer.id() {
		t.Fatal("currentID is not the open span")
	}
	inner := tr.begin("inner", "bench", 0)
	tr.end(inner)
	tr.end(outer)
	other := tr.buf()
	other.add("elsewhere", "bench", 1, 2, outer.id(), 7)
	all := tr.all()
	if len(all) != 3 {
		t.Fatalf("got %d spans", len(all))
	}
	byName := map[string]span{}
	for _, s := range all {
		byName[s.Name] = s
	}
	if byName["inner"].Parent != byName["outer"].ID || byName["elsewhere"].Parent != byName["outer"].ID {
		t.Fatalf("parents wrong: %+v", all)
	}
	if byName["elsewhere"].ID == byName["inner"].ID || byName["elsewhere"].Req != 7 {
		t.Fatalf("ids collide across buffers or req lost: %+v", all)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", "y", 0)) // the untraced run: must not panic
	if nilTracer.buf().begin("x", "y", 0, 0).id() != 0 {
		t.Fatal("nil buffer recorded a span")
	}
}

func TestAggregation(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v", g)
	}
	if g := geomean([]float64{3, 0}); g != 0 {
		t.Errorf("geomean with a zero = %v, want 0", g)
	}
	// Ten reps: the fastest fifth is the two fastest, whatever the rest do.
	if f := fastest([]float64{9, 1, 50, 3, 7, 8, 6, 5, 4, 40}); f != 2 {
		t.Errorf("fastest of ten = %v, want (1+3)/2", f)
	}
	if f := fastest([]float64{5, 4}); f != 4 {
		t.Errorf("fastest of two = %v, want the faster one", f)
	}
	rs := []*taskResult{
		{task: &task{name: "a", mode: "dedicated", ops: 1000}, secs: []float64{2, 4, 3}}, // fastest fifth 2 s
		{task: &task{name: "b", mode: "pooled", ops: 3000}, secs: []float64{2, 2}},       // 2 s
	}
	if got := opsPerSecond(rs); got != 1000 {
		t.Errorf("opsPerSecond = %v, want (1000+3000)/(2+2)", got)
	}
	// 2 s / 1000 ops = 2e6 ns/op; 2 s / 3000 ops = 666666.7 ns/op.
	want := math.Sqrt(2e6 * 2e9 / 3000)
	if got := nsPerOpGeomean(rs); math.Abs(got-want) > 1e-6 {
		t.Errorf("nsPerOpGeomean = %v, want %v", got, want)
	}
	if got := nsPerOpGeomean(byMode(rs, "pooled")); math.Abs(got-2e9/3000) > 1e-6 {
		t.Errorf("pooled ns/op = %v", got)
	}
	rs[1].err = os.ErrInvalid
	if a, f := tally(rs); a != 3*1000+2*3000 || f != 2*3000 {
		t.Errorf("tally = %d attempted, %d failed", a, f)
	}
}

var workloadOrder = []string{"handoff", "guard", "chain", "bank"}

// smoke runs one workload at a tiny size.
func smoke(t *testing.T, name string, traced, broken bool) *report {
	t.Helper()
	c := &runCtx{seed: 3, budget: time.Millisecond, scale: 500, outDir: t.TempDir(), breakIt: broken}
	if traced {
		c.tr = newTracer()
	}
	rep, err := workloads[name](c)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

func TestSmokeWorkloads(t *testing.T) {
	for _, name := range workloadOrder {
		rep := smoke(t, name, false, false)
		if rep.failed != 0 || rep.checkErr != nil || rep.attempted == 0 {
			t.Errorf("%s: %d of %d failed, check error %v", name, rep.failed, rep.attempted, rep.checkErr)
		}
		for _, m := range []string{"setup_s", "ops_per_s", "dedicated_ns_per_op", "pooled_ns_per_op", "sync_us", "allocs_per_op", "peak_rss_mb"} {
			if v, ok := rep.metrics[m]; !ok || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
			}
		}
		if len(rep.metrics) != 7 {
			t.Errorf("%s: %d end-to-end metrics, want 7", name, len(rep.metrics))
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, name := range workloadOrder {
		rep := smoke(t, name, true, false)
		if rep.failed != 0 || rep.checkErr != nil {
			t.Errorf("%s traced: %d failed, check error %v", name, rep.failed, rep.checkErr)
		}
		if len(rep.metrics) != len(layerUnits) {
			t.Errorf("%s traced: %d metrics, want every one of %d", name, len(rep.metrics), len(layerUnits))
		}
		if rep.metrics["obs.trace_overhead_ratio"].Value <= 0 {
			t.Errorf("%s traced: no overhead ratio", name)
		}
		path, _ := rep.detail["span_file"].(string)
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s traced: span file %q: %v", name, path, err)
		}
	}
}

// The checks must be able to fail: an xfer proc that loses a unit of
// money breaks read-after-xfer and conservation.
func TestBrokenBankRaisesFailRatio(t *testing.T) {
	rep := smoke(t, "bank", false, true)
	if rep.failed == 0 {
		t.Error("a lossy xfer proc did not fail a single request")
	}
	if rep.checkErr == nil {
		t.Error("a lossy xfer proc passed the conservation check")
	}
}

// When the generator cannot keep its schedule, latency still counts
// from the time each request was due, not from when it was sent.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	c := &runCtx{seed: 1, scale: 500}
	st, err := buildBank(c)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	side := st.sides["pooled"]
	g := side.gens[0]
	for _, other := range side.gens[1:] {
		other.begin(0, 0)
	}
	const n = 2000
	g.begin(openRecords, n)
	g.openLoop(n, 1e9, openXferOf5) // one request due every nanosecond: late on purpose
	ps := side.collect()
	if ps.replies != n || ps.wrong+ps.failed != 0 {
		t.Fatalf("%d correct replies of %d, %d wrong, %d failed", ps.replies, n, ps.wrong, ps.failed)
	}
	sort.Slice(ps.late, func(i, j int) bool { return ps.late[i] < ps.late[j] })
	if ps.late[n/2] <= 0 {
		t.Fatal("generator was made late on purpose but reports no lateness")
	}
	var maxLat int64
	for i, l := range ps.lat {
		maxLat = max(maxLat, l)
		if l <= 0 {
			t.Fatalf("latency %d of request %d is not positive", l, i)
		}
	}
	// Every request was due within n ns of the start, so the slowest one
	// waited for nearly the whole phase; counted from its send time it
	// would be a single round trip.
	phase := ps.lastAt - ps.firstDue
	if maxLat < phase-n-1 {
		t.Fatalf("max latency %d ns, but the phase took %d ns from the first due time: latency is not counted from the due time", maxLat, phase)
	}
}

// BENCHMARK.json and the program must name the same metrics.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, the program has none", w.Name)
		}
	}
	rep := newReport()
	rep.setE2E([]float64{1}, 1, 1, 1, 1, 1)
	if len(bf.EndToEnd) != len(rep.metrics) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bf.EndToEnd), len(rep.metrics))
	}
	for _, m := range bf.EndToEnd {
		if got, ok := rep.metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s [%s]: the program has %q", m.Name, m.Unit, got.Unit)
		}
	}
	if len(bf.PerLayer) != len(layerUnits) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bf.PerLayer), len(layerUnits))
	}
	for _, m := range bf.PerLayer {
		if unit, ok := layerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer metric %s [%s]: the program has %q", m.Name, m.Unit, unit)
		}
	}
}
