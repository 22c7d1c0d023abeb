// Command bench is the repository's one benchmark: four workloads
// (handoff, guard, chain, bank) measured end to end with tracing off,
// and layer by layer in a separate traced run. BENCHMARK.json at the
// repository root names the metrics and their regression bounds;
// README.md in this directory defines every name.
//
//	go run ./bench --workload bank --seed 1 --seconds 28 --trace 0
//	go run ./bench --sets 2 --runs 5        # repeatability of the above
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero
// when a correctness check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// P is the parallelism every workload is sized for: pooled runtimes use
// Workers = P, GOMAXPROCS is pinned to it, and at most P goroutines
// generate load.
var P = min(runtime.NumCPU(), 4)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run produced.
type report struct {
	attempted, failed int64
	checkErr          error             // a whole-run correctness check that failed
	metrics           map[string]metric // the end-to-end set, or the per-layer set when traced
	detail            map[string]any    // per-rep values and sample counts, for the summary file
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{v, unit}
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, detail: map[string]any{}}
}

// runCtx carries one run's arguments to the workload.
type runCtx struct {
	seed    int64
	budget  time.Duration
	tr      *tracer // nil when tracing is off
	scale   int     // 1 in real runs; tests divide every size by it
	outDir  string
	breakIt bool // tests only: install a bank proc that loses money
}

var workloads = map[string]func(*runCtx) (*report, error){
	"handoff": runHandoff,
	"guard":   runGuard,
	"chain":   runChain,
	"bank":    runBank,
}

func main() {
	var (
		workload = flag.String("workload", "", "handoff, guard, chain or bank")
		seed     = flag.Int64("seed", 1, "drives the bank's account, shard and op-mix choices and cowichan.Params.Seed")
		seconds  = flag.Int("seconds", 28, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 runs the traced, per-layer run instead of the end-to-end run")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for span and summary files")
		sets     = flag.Int("sets", 0, "repeat mode: number of sets of runs of every workload")
		runs     = flag.Int("runs", 5, "repeat mode: runs per set")
	)
	flag.Parse()
	if *sets > 0 {
		os.Exit(repeat(*sets, *runs, *seconds, *seed))
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want handoff, guard, chain or bank)\n", *workload)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(P)
	host := hostBlock(*seed)
	fmt.Printf("host: %s\n", mustJSON(host))

	c := &runCtx{seed: *seed, budget: time.Duration(*seconds) * time.Second, scale: 1, outDir: *outDir}
	if *trace != 0 {
		c.tr = newTracer()
	}
	rep, err := run(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, name := range sortedKeys(rep.metrics) {
		fmt.Printf("metric %-44s %16.6f %s\n", name, rep.metrics[name].Value, rep.metrics[name].Unit)
	}
	correct := rep.failed == 0 && rep.checkErr == nil
	if rep.checkErr != nil {
		fmt.Printf("CHECK FAILED: %v\n", rep.checkErr)
	}
	failRatio := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Printf("fail_ratio %.6f (%d failed of %d attempted)\n", failRatio, rep.failed, rep.attempted)
	if err := writeSummary(c.outDir, *workload, *trace != 0, host, rep, correct, failRatio); err != nil {
		fmt.Fprintf(os.Stderr, "bench: summary: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(mustJSON(map[string]any{
		"correct":   correct,
		"attempted": max(rep.attempted, 1),
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	}))
	if !correct {
		os.Exit(1)
	}
}

// gitSHA is the commit the binary was built from: the build's VCS stamp,
// or — go run does not stamp — what .git/HEAD in the current directory
// points at; "unknown" in a checkout that is not a git repository.
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	return "unknown"
}

// hostBlock describes where the numbers were taken.
func hostBlock(seed int64) map[string]any {
	sha := gitSHA()
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    P,
		"go":         runtime.Version(),
		"git_sha":    sha,
		"seed":       seed,
	}
}

// writeSummary keeps the full result — host block, every metric, every
// rep — in outDir/summary-<workload>[-trace].json. This benchmark
// measures; it claims nothing, hence the closing "claim": null.
func writeSummary(dir, workload string, traced bool, host map[string]any, rep *report, correct bool, failRatio float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := "summary-" + workload
	if traced {
		name += "-trace"
	}
	type summary struct {
		Workload  string            `json:"workload"`
		Traced    bool              `json:"traced"`
		Host      map[string]any    `json:"host"`
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		FailRatio float64           `json:"fail_ratio"`
		Metrics   map[string]metric `json:"metrics"`
		Detail    map[string]any    `json:"detail"`
		Claim     *string           `json:"claim"`
	}
	b, err := json.MarshalIndent(summary{
		Workload: workload, Traced: traced, Host: host, Correct: correct,
		Attempted: rep.attempted, Failed: rep.failed, FailRatio: failRatio,
		Metrics: rep.metrics, Detail: rep.detail,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(b, '\n'), 0o644)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of numbers, strings and bools are passed
	}
	return string(b)
}
