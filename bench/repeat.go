package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the repeat mode reads.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

// runResult is the last line of one run's standard output.
type runResult struct {
	Correct bool
	Metrics map[string]metric
}

// runOnce runs this same binary as a fresh process — one process per
// workload run, as the host rules say — and parses its result line.
func runOnce(workload string, seed int64, seconds int) (runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return runResult{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res runResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return runResult{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return res, nil
}

// repeat runs sets × runs end-to-end runs of every workload, each run
// with another seed, and judges every metric against its bound in
// BENCHMARK.json: the spread (interquartile distance over the median,
// all runs of both sets pooled, and within each set) and the difference
// between the sets' medians. A metric whose spread exceeds its bound is
// unresolved — the benchmark cannot tell a change of that size from
// noise — and is never reported as passing. It returns the exit code.
func repeat(sets, runs, seconds int, seed int64) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: repeat mode reads the bounds from BENCHMARK.json in the current directory: %v\n", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "bench: BENCHMARK.json: %v\n", err)
		return 2
	}
	exit := 0
	for _, w := range bf.Workloads {
		// values[metric][set] holds that set's runs.
		values := map[string][][]float64{}
		for s := 0; s < sets; s++ {
			for r := 0; r < runs; r++ {
				res, err := runOnce(w.Name, seed+int64(s*runs+r), seconds)
				if err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s: run failed: %v (correct=%v)\n", w.Name, err, res.Correct)
					return 1
				}
				for name, m := range res.Metrics {
					for len(values[name]) <= s {
						values[name] = append(values[name], nil)
					}
					values[name][s] = append(values[name][s], m.Value)
				}
			}
		}
		fmt.Printf("%s: %d sets of %d runs, %d s each, seeds %d..%d\n", w.Name, sets, runs, seconds, seed, seed+int64(sets*runs)-1)
		fmt.Printf("  %-22s %14s %14s %14s %8s %8s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "set-diff", "bound", "verdict")
		for _, m := range bf.EndToEnd {
			var all, meds []float64
			worstSet := 0.0
			for _, set := range values[m.Name] {
				all = append(all, set...)
				meds = append(meds, median(set))
				worstSet = max(worstSet, spread(set))
			}
			q1, q3 := quartiles(all)
			sp := max(spread(all), worstSet)
			// The second set must not be worse than the first by more
			// than the bound; better or equal always passes.
			diff := 0.0
			if len(meds) >= 2 && meds[0] != 0 {
				diff = (meds[len(meds)-1] - meds[0]) / meds[0]
				if m.Better == "higher" {
					diff = -diff
				}
			}
			verdict := "ok"
			switch {
			case m.Name != "setup_s" && sp > m.Bound:
				verdict = "UNRESOLVED: spread exceeds the bound"
				exit = 1
			case diff > m.Bound:
				verdict = "FAIL: second set worse than the first by more than the bound"
				exit = 1
			case m.Name != "setup_s" && sp > m.Bound/3:
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Printf("  %-22s %14.4f %14.4f %14.4f %7.2f%% %+7.2f%% %7.2f%%  %s\n",
				m.Name, median(all), q1, q3, sp*100, diff*100, m.Bound*100, verdict)
			for i, set := range values[m.Name] {
				fmt.Printf("      set %d runs %v\n", i+1, set)
			}
		}
	}
	return exit
}
