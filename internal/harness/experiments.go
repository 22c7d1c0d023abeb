package harness

import (
	"fmt"
	"time"

	"scoopqs/internal/concbench"
	"scoopqs/internal/core"
	"scoopqs/internal/cowichan"
)

// ConfigNames lists the optimization columns in the paper's order.
var ConfigNames = []string{"None", "Dyn.", "Static", "QoQ", "All"}

// configsInOrder returns the five configurations in column order.
func configsInOrder() []core.Config {
	return []core.Config{
		core.ConfigNone, core.ConfigDynamic, core.ConfigStatic,
		core.ConfigQoQ, core.ConfigAll,
	}
}

// configs returns the optimization columns of this run: Options.Configs
// if set, else the paper's five.
func (o Options) configs() []core.Config {
	if o.Configs == nil {
		return configsInOrder()
	}
	return o.Configs
}

// configNames returns the column headers matching configs().
func (o Options) configNames() []string {
	if o.Configs == nil {
		return ConfigNames
	}
	names := make([]string, 0, len(o.Configs))
	for _, c := range o.Configs {
		names = append(names, c.Name())
	}
	return names
}

// commTimesByConfig measures the communication time of every parallel
// task under every configuration (the data behind Table 1 and Fig. 16).
func (o Options) commTimesByConfig() map[string][]time.Duration {
	in := prepareInputs(o.Cow)
	out := make(map[string][]time.Duration, len(CowTasks))
	for _, task := range CowTasks {
		times := make([]time.Duration, 0, 5)
		for _, cfg := range o.configs() {
			im := NewImpl("Qs", cfg, o.Workers)
			t := o.MeasureTiming(func() cowichan.Timing { return RunCowTask(task, im, in) })
			im.Close()
			comm := t.Comm
			if comm <= 0 {
				comm = time.Microsecond
			}
			times = append(times, comm)
		}
		out[task] = times
	}
	return out
}

// Table1 regenerates "Normalized (to fastest) comparison of
// optimizations on parallel tasks".
func (o Options) Table1() {
	section(o.Out, "Table 1",
		"Communication time on parallel tasks, normalized to the fastest\noptimization configuration per task (paper: Table 1).")
	data := o.commTimesByConfig()
	tb := newTable(o.Out)
	tb.row(append([]string{"Task"}, o.configNames()...)...)
	for _, task := range CowTasks {
		times := data[task]
		best := times[0]
		for _, d := range times[1:] {
			if d < best {
				best = d
			}
		}
		cells := []string{task}
		for _, d := range times {
			cells = append(cells, Ratio(d, best))
		}
		tb.row(cells...)
	}
	tb.flush()
}

// Fig16 regenerates "Communication times for different optimization
// techniques evaluated on parallel tasks" (same data as Table 1,
// absolute values; the paper plots them on a log scale).
func (o Options) Fig16() {
	section(o.Out, "Figure 16",
		"Communication time (seconds) of each optimization configuration on\nthe parallel tasks (paper: Fig. 16; log-scale bars of this data).")
	data := o.commTimesByConfig()
	tb := newTable(o.Out)
	tb.row(append([]string{"Task"}, o.configNames()...)...)
	for _, task := range CowTasks {
		cells := []string{task}
		for _, d := range data[task] {
			cells = append(cells, Seconds(d))
		}
		tb.row(cells...)
	}
	tb.flush()
}

// concTimesByConfig measures every coordination benchmark under every
// configuration (the data behind Table 2 and Fig. 17).
func (o Options) concTimesByConfig() map[string][]time.Duration {
	out := make(map[string][]time.Duration, len(concbench.Names))
	for _, bench := range concbench.Names {
		times := make([]time.Duration, 0, 5)
		for _, cfg := range o.configs() {
			cfg := cfg
			bench := bench
			d := o.MeasureWall(func() {
				if err := concbench.Run(bench, "Qs", cfg, o.Conc); err != nil {
					panic(err)
				}
			})
			times = append(times, d)
		}
		out[bench] = times
	}
	return out
}

// Table2 regenerates "Times (in seconds) for optimizations applied on
// concurrent benchmarks".
func (o Options) Table2() {
	section(o.Out, "Table 2",
		"Coordination benchmarks under each optimization configuration,\nseconds (paper: Table 2).")
	data := o.concTimesByConfig()
	tb := newTable(o.Out)
	tb.row(append([]string{"Task"}, o.configNames()...)...)
	for _, bench := range concbench.Names {
		cells := []string{bench}
		for _, d := range data[bench] {
			cells = append(cells, Seconds(d))
		}
		tb.row(cells...)
	}
	tb.flush()
}

// Fig17 regenerates the bar-chart view of Table 2.
func (o Options) Fig17() {
	section(o.Out, "Figure 17",
		"Same data as Table 2 (the paper renders it as bars); additionally\nnormalized per benchmark to the fastest configuration.")
	data := o.concTimesByConfig()
	tb := newTable(o.Out)
	tb.row(append([]string{"Task"}, o.configNames()...)...)
	for _, bench := range concbench.Names {
		times := data[bench]
		best := times[0]
		for _, d := range times[1:] {
			if d < best {
				best = d
			}
		}
		cells := []string{bench}
		for _, d := range times {
			cells = append(cells, fmt.Sprintf("%s (%sx)", Seconds(d), Ratio(d, best)))
		}
		tb.row(cells...)
	}
	tb.flush()
}

// Table3 prints the static language-characteristics table.
func (o Options) Table3() {
	section(o.Out, "Table 3",
		"Language characteristics (static; paper: Table 3). The repo's\nstand-ins implement the same coordination mechanics in Go.")
	tb := newTable(o.Out)
	tb.row("Language", "Races", "Threads", "Paradigm", "Memory", "Approach", "Stand-in")
	tb.row("C++/TBB", "possible", "OS", "Imperative", "Shared", "Skeletons/traditional", "internal/sched fork-join skeletons")
	tb.row("Go", "possible", "light", "Imperative", "Shared", "Goroutines/channels", "native goroutines+channels")
	tb.row("Haskell", "none", "light", "Functional", "STM", "STM/Repa", "internal/stm + chunk-and-concat")
	tb.row("Erlang", "none", "light", "Functional", "Non-shared", "Actors", "internal/actor deep-copy messages")
	tb.row("SCOOP/Qs", "none", "light", "O-O", "Non-shared", "Active Objects", "internal/core (this repo's subject)")
	tb.flush()
}

// parallelByLang measures total and compute time for every parallel
// task and paradigm at full worker width (the data behind Fig. 18).
func (o Options) parallelByLang() map[string]map[string]cowichan.Timing {
	in := prepareInputs(o.Cow)
	out := map[string]map[string]cowichan.Timing{}
	for _, lang := range CowLangs {
		out[lang] = map[string]cowichan.Timing{}
		im := NewImpl(lang, core.ConfigAll, o.Workers)
		for _, task := range CowTasks {
			out[lang][task] = o.MeasureTiming(func() cowichan.Timing { return RunCowTask(task, im, in) })
		}
		im.Close()
	}
	return out
}

// Fig18 regenerates "Execution times of parallel tasks on different
// languages", split into computation and communication time.
func (o Options) Fig18() {
	section(o.Out, "Figure 18",
		fmt.Sprintf("Parallel task times by paradigm at %d workers: total seconds with\nthe communication share in parentheses (paper: Fig. 18).", o.Workers))
	data := o.parallelByLang()
	tb := newTable(o.Out)
	tb.row(append([]string{"Task"}, CowLangs...)...)
	for _, task := range CowTasks {
		cells := []string{task}
		for _, lang := range CowLangs {
			t := data[lang][task]
			cells = append(cells, fmt.Sprintf("%s (comm %s)", Seconds(t.Total()), Seconds(t.Comm)))
		}
		tb.row(cells...)
	}
	tb.flush()
}

// sweepByCores measures every task and paradigm across the Cores sweep
// (the data behind Fig. 19 and Table 4).
func (o Options) sweepByCores() map[string]map[string][]cowichan.Timing {
	in := prepareInputs(o.Cow)
	out := map[string]map[string][]cowichan.Timing{}
	for _, lang := range CowLangs {
		out[lang] = map[string][]cowichan.Timing{}
		for _, n := range o.Cores {
			n := n
			var im cowichan.Impl
			withProcs(n, func() {
				im = NewImpl(lang, core.ConfigAll, n)
				for _, task := range CowTasks {
					t := o.MeasureTiming(func() cowichan.Timing { return RunCowTask(task, im, in) })
					out[lang][task] = append(out[lang][task], t)
				}
				im.Close()
			})
		}
	}
	return out
}

// Fig19 regenerates "Speedup over single-core performance".
func (o Options) Fig19() {
	section(o.Out, "Figure 19",
		fmt.Sprintf("Speedup over the 1-worker run, sweep %v (paper: Fig. 19, 1..32\ncores). NOTE: physical cores on this host = %d; with fewer physical\ncores than workers the curves flatten by construction.",
			o.Cores, physicalCPUs()))
	data := o.sweepByCores()
	tb := newTable(o.Out)
	header := []string{"Task", "Lang"}
	for _, n := range o.Cores {
		header = append(header, fmt.Sprintf("w=%d", n))
	}
	tb.row(header...)
	for _, task := range CowTasks {
		for _, lang := range CowLangs {
			ts := data[lang][task]
			base := ts[0].Total()
			cells := []string{task, lang}
			for _, t := range ts {
				cells = append(cells, Ratio(base, t.Total()))
			}
			tb.row(cells...)
		}
	}
	tb.flush()
}

// Table4 regenerates "Parallel benchmark times", total (T) and
// compute-only (C) rows per paradigm and thread count.
func (o Options) Table4() {
	section(o.Out, "Table 4",
		fmt.Sprintf("Parallel task times (seconds) per worker count %v. V column: T =\ntotal, C = compute-only (paper: Table 4, which reports C only for\nerlang and Qs; we report it for every paradigm that measures it).", o.Cores))
	data := o.sweepByCores()
	tb := newTable(o.Out)
	header := []string{"Task", "Lang", "V"}
	for _, n := range o.Cores {
		header = append(header, fmt.Sprintf("w=%d", n))
	}
	tb.row(header...)
	for _, task := range CowTasks {
		for _, lang := range CowLangs {
			ts := data[lang][task]
			cells := []string{task, lang, "T"}
			for _, t := range ts {
				cells = append(cells, Seconds(t.Total()))
			}
			tb.row(cells...)
			if hasCommSplit(lang) {
				cells = []string{task, lang, "C"}
				for _, t := range ts {
					cells = append(cells, Seconds(t.Compute))
				}
				tb.row(cells...)
			}
		}
	}
	tb.flush()
}

// hasCommSplit reports whether a paradigm distinguishes communication
// from computation (the paper splits only erlang and Qs).
func hasCommSplit(lang string) bool { return lang == "erlang" || lang == "Qs" }

// concByLang measures every coordination benchmark under every paradigm
// (the data behind Table 5 and Fig. 20).
func (o Options) concByLang() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, bench := range concbench.Names {
		for _, lang := range concbench.Langs {
			bench, lang := bench, lang
			d := o.MeasureWall(func() {
				if err := concbench.Run(bench, lang, core.ConfigAll, o.Conc); err != nil {
					panic(err)
				}
			})
			out[bench] = append(out[bench], d)
		}
	}
	return out
}

// Table5 regenerates "Concurrent benchmark times".
func (o Options) Table5() {
	section(o.Out, "Table 5",
		"Coordination benchmark times (seconds) by paradigm (paper: Table 5).")
	data := o.concByLang()
	tb := newTable(o.Out)
	tb.row(append([]string{"Task"}, concbench.Langs...)...)
	for _, bench := range concbench.Names {
		cells := []string{bench}
		for _, d := range data[bench] {
			cells = append(cells, Seconds(d))
		}
		tb.row(cells...)
	}
	tb.flush()
}

// Fig20 regenerates the bar-chart view of Table 5 with per-benchmark
// normalization.
func (o Options) Fig20() {
	section(o.Out, "Figure 20",
		"Same data as Table 5 (the paper renders it as bars); normalized per\nbenchmark to the fastest paradigm.")
	data := o.concByLang()
	tb := newTable(o.Out)
	tb.row(append([]string{"Task"}, concbench.Langs...)...)
	for _, bench := range concbench.Names {
		times := data[bench]
		best := times[0]
		for _, d := range times[1:] {
			if d < best {
				best = d
			}
		}
		cells := []string{bench}
		for _, d := range times {
			cells = append(cells, fmt.Sprintf("%s (%sx)", Seconds(d), Ratio(d, best)))
		}
		tb.row(cells...)
	}
	tb.flush()
}

// Summary regenerates the geometric-mean summaries of §4.4 and §5.4.
func (o Options) Summary() {
	section(o.Out, "Summary (geometric means)",
		"§4.4: optimization configs over all 11 benchmarks. §5: paradigms\nover parallel (total and compute-only), concurrent, and all tasks.")

	// Optimization configurations: parallel comm + concurrent wall.
	comm := o.commTimesByConfig()
	conc := o.concTimesByConfig()
	tb := newTable(o.Out)
	// The baseline is the last configured column (All in a full sweep;
	// whatever -config selected otherwise), so label it accordingly.
	names := o.configNames()
	tb.row("Config", "geomean(s)", "vs "+names[len(names)-1])
	var allMeans []time.Duration
	for ci, name := range names {
		var ds []time.Duration
		for _, task := range CowTasks {
			ds = append(ds, comm[task][ci])
		}
		for _, bench := range concbench.Names {
			ds = append(ds, conc[bench][ci])
		}
		allMeans = append(allMeans, GeoMean(ds))
		_ = name
	}
	for ci, name := range names {
		tb.row(name, Seconds(allMeans[ci]), Ratio(allMeans[ci], allMeans[len(allMeans)-1]))
	}
	tb.flush()
	fmt.Fprintf(o.Out, "\nPaper's §4.4 geomeans: None 20.70s, Dyn 1.99s, Static 2.24s, QoQ 16.21s, All 1.36s (~15x None/All).\n")

	// Paradigms.
	par := o.parallelByLang()
	concL := o.concByLang()
	tb = newTable(o.Out)
	tb.row("Lang", "parallel T", "parallel C", "concurrent", "overall")
	for li, lang := range CowLangs {
		var pt, pc, ct, all []time.Duration
		for _, task := range CowTasks {
			t := par[lang][task]
			pt = append(pt, t.Total())
			pc = append(pc, t.Compute)
			all = append(all, t.Total())
		}
		for _, bench := range concbench.Names {
			d := concL[bench][li]
			ct = append(ct, d)
			all = append(all, d)
		}
		tb.row(lang, Seconds(GeoMean(pt)), Seconds(GeoMean(pc)), Seconds(GeoMean(ct)), Seconds(GeoMean(all)))
	}
	tb.flush()
	fmt.Fprintf(o.Out, "\nPaper's §5.4 overall geomeans: cxx 0.71s, go 1.02s, Qs 1.61s, haskell 3.30s, erlang 9.51s.\n")
}
