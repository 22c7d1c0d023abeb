// Command qsbench regenerates the tables and figures of the paper's
// evaluation (West, Nanz, Meyer: "Efficient and Reasonable
// Object-Oriented Concurrency", PPoPP 2015).
//
// Usage:
//
//	qsbench [flags]
//
//	-experiment NAME[,NAME...]  experiments to run; "all" runs every
//	            one in the paper's order. The names are those of
//	            harness.Experiments (flag help and error messages are
//	            generated from it): table1..5, fig16..20, eve (§4.5)
//	            and summary (the geometric means of §4.4 and §5.4).
//	-trace path enable the internal/obs tracer for the whole run and
//	            export a Chrome trace_event JSON file at exit (load it
//	            in Perfetto or chrome://tracing)
//	-size      small|paper   problem sizes (paper sizes are large!)
//	-reps      N             repetitions per measurement (median)
//	-workers   N             worker/handler count at full width
//	-config    Name          restrict the optimization sweeps to one
//	                         configuration (None|Dynamic|Static|QoQ|All)
//	-cores     1,2,4         worker sweep for fig19/table4
//
// Each experiment prints a text table with the same rows/columns as
// the paper's table or figure. What the repo measures about itself —
// throughput, latency, the per-layer ladder — is `go run ./bench`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"scoopqs/internal/concbench"
	"scoopqs/internal/core"
	"scoopqs/internal/cowichan"
	"scoopqs/internal/harness"
	"scoopqs/internal/obs"
)

// experimentNames lists the registered experiments in run order.
func experimentNames() string {
	names := make([]string, len(harness.Experiments))
	for i, e := range harness.Experiments {
		names[i] = e.Name
	}
	return strings.Join(names, ", ")
}

// selectExperiments resolves a comma-separated -experiment value
// against harness.Experiments ("all" expands to every one in order).
func selectExperiments(spec string) ([]harness.Experiment, error) {
	var out []harness.Experiment
next:
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "all" {
			out = append(out, harness.Experiments...)
			continue
		}
		for _, e := range harness.Experiments {
			if e.Name == name {
				out = append(out, e)
				continue next
			}
		}
		return nil, fmt.Errorf("unknown -experiment %q (want all, %s)", name, experimentNames())
	}
	return out, nil
}

// configByName resolves the paper's configuration labels
// (case-insensitive; "Dyn." accepted for Dynamic).
func configByName(name string) (core.Config, bool) {
	switch strings.ToLower(strings.TrimSuffix(name, ".")) {
	case "none":
		return core.ConfigNone, true
	case "dynamic", "dyn":
		return core.ConfigDynamic, true
	case "static":
		return core.ConfigStatic, true
	case "qoq":
		return core.ConfigQoQ, true
	case "all":
		return core.ConfigAll, true
	}
	return core.Config{}, false
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "qsbench: %v\n", err)
		os.Exit(1)
	}
}

// run is main without the process exit, so a test can drive it.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("qsbench", flag.ExitOnError)
	experiment := fs.String("experiment", "all",
		"experiment to run: all, "+experimentNames()+" (comma-separate to run several)")
	size := fs.String("size", "small", "problem sizes: small or paper")
	reps := fs.Int("reps", 3, "repetitions per measurement")
	workers := fs.Int("workers", 0, "workers/handlers (default: NumCPU, min 2)")
	config := fs.String("config", "", "restrict optimization sweeps to one configuration (None, Dynamic, Static, QoQ, All)")
	cores := fs.String("cores", "", "comma-separated worker sweep for fig19/table4")
	tracePath := fs.String("trace", "", "record internal/obs events for the whole run and write a Chrome trace_event JSON file here")
	fs.Parse(args) //nolint:errcheck // ExitOnError: Parse exits on a bad flag

	o := harness.Defaults(stdout)
	o.Reps = *reps
	if *workers > 0 {
		o.Workers = *workers
	}
	if *config != "" {
		cfg, ok := configByName(*config)
		if !ok {
			return fmt.Errorf("unknown -config %q (want None, Dynamic, Static, QoQ, All)", *config)
		}
		o.Configs = []core.Config{cfg}
	}
	switch *size {
	case "small":
	case "paper":
		o.Cow = cowichan.PaperParams()
		o.Conc = concbench.PaperParams()
		fmt.Fprintln(stderr, "qsbench: paper sizes selected; expect long runs and ~GiB memory use")
	default:
		return fmt.Errorf("unknown -size %q", *size)
	}
	if *cores != "" {
		o.Cores = nil
		for _, s := range strings.Split(*cores, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				return fmt.Errorf("bad -cores entry %q", s)
			}
			o.Cores = append(o.Cores, n)
		}
	}
	if err := o.Cow.Validate(); err != nil {
		return err
	}
	selected, err := selectExperiments(*experiment)
	if err != nil {
		return err
	}
	if *tracePath != "" {
		obs.Enable()
	}

	fmt.Fprintf(stdout, "qsbench: host CPUs=%d, workers=%d, reps=%d, cow=%+v, conc=%+v\n",
		runtime.NumCPU(), o.Workers, o.Reps, o.Cow, o.Conc)
	for _, e := range selected {
		e.Run(o)
	}

	if *tracePath != "" {
		// Disable before export for a consistent snapshot (live emitters
		// would otherwise tear records mid-copy).
		obs.Disable()
		f, err := os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("creating -trace file: %w", err)
		}
		if err := obs.WriteChromeTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("writing -trace file: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("closing -trace file: %w", err)
		}
		fmt.Fprintf(stderr, "qsbench: wrote %d trace events (%d kinds) to %s\n",
			obs.EventCount(), len(obs.KindCounts()), *tracePath)
	}
	return nil
}
