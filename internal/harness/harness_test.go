package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"scoopqs/internal/concbench"
	"scoopqs/internal/core"
	"scoopqs/internal/cowichan"
)

// tinyOptions shrink every experiment so the whole suite runs in
// seconds inside the test.
func tinyOptions(buf *bytes.Buffer) Options {
	return Options{
		Out:     buf,
		Reps:    1,
		Workers: 2,
		Cores:   []int{1, 2},
		Cow:     cowichan.Params{NR: 40, P: 25, NW: 40, Seed: 5},
		Conc:    concbench.Params{N: 2, M: 25, NT: 200, NC: 80, Ring: 8, Creatures: 4},
	}
}

// experimentOutput maps each registered experiment to what it must
// print: its header first, then row or column labels.
var experimentOutput = map[string][]string{
	"table1":  {"== Table 1 ==", "randmat", "chain"},
	"fig16":   {"== Figure 16 ==", "winnow"},
	"table2":  {"== Table 2 ==", "mutex", "threadring"},
	"fig17":   {"== Figure 17 ==", "condition"},
	"table3":  {"== Table 3 ==", "SCOOP/Qs", "Erlang"},
	"fig18":   {"== Figure 18 ==", "product", "comm"},
	"fig19":   {"== Figure 19 ==", "w=1", "w=2"},
	"table4":  {"== Table 4 ==", "chain", "T"},
	"table5":  {"== Table 5 ==", "prodcons"},
	"fig20":   {"== Figure 20 ==", "chameneos"},
	"eve":     {"== §4.5 EVE/Qs ==", "EVE/Qs over EVE"},
	"summary": {"geometric means", "geomean", "overall"},
}

// TestAllExperimentsRender runs every registered experiment end to end.
// A registered experiment with no entry above, or one that renders no
// header, fails here — there is no other registry to drift from.
func TestAllExperimentsRender(t *testing.T) {
	if len(Experiments) != len(experimentOutput) {
		t.Errorf("%d experiments registered, %d expected", len(Experiments), len(experimentOutput))
	}
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			want, ok := experimentOutput[e.Name]
			if !ok {
				t.Fatalf("experiment %q has no expected output", e.Name)
			}
			var buf bytes.Buffer
			e.Run(tinyOptions(&buf))
			out := buf.String()
			for _, w := range want {
				if !strings.Contains(out, w) {
					t.Errorf("output missing %q:\n%s", w, out)
				}
			}
		})
	}
}

// A restricted Configs list, pool size included, must thread through to
// the Qs runs and the rendered column headers.
func TestPoolAndConfigOptions(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Configs = []core.Config{core.ConfigAll.WithWorkers(2)}
	o.Table2()
	out := buf.String()
	if !strings.Contains(out, "All+pool2") {
		t.Fatalf("header missing pooled config name:\n%s", out)
	}
	if strings.Contains(out, "None") {
		t.Fatalf("config restriction ignored:\n%s", out)
	}
}

func TestGeoMean(t *testing.T) {
	ds := []time.Duration{time.Second, 4 * time.Second}
	got := GeoMean(ds)
	if got < 1990*time.Millisecond || got > 2010*time.Millisecond {
		t.Errorf("GeoMean(1s,4s) = %v, want ~2s", got)
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) should be 0")
	}
	// Zero durations are clamped, not fatal.
	if GeoMean([]time.Duration{0, time.Second}) <= 0 {
		t.Error("GeoMean with zero input should stay positive")
	}
}

func TestMeasureWallMedian(t *testing.T) {
	o := Options{Reps: 5}
	d := o.MeasureWall(func() { time.Sleep(time.Millisecond) })
	if d < 500*time.Microsecond || d > 100*time.Millisecond {
		t.Errorf("median wall time implausible: %v", d)
	}
}

func TestRunCowTaskAllTasks(t *testing.T) {
	p := cowichan.Params{NR: 32, P: 25, NW: 32, Seed: 3}
	in := prepareInputs(p)
	im := cowichan.NewSeq()
	for _, task := range CowTasks {
		tm := RunCowTask(task, im, in)
		if tm.Total() <= 0 {
			t.Errorf("task %s reported non-positive time", task)
		}
	}
}

func TestNewImplAllLangs(t *testing.T) {
	for _, lang := range append([]string{"seq"}, CowLangs...) {
		im := NewImpl(lang, core.ConfigAll, 2)
		if im.Name() != lang {
			t.Errorf("NewImpl(%q).Name() = %q", lang, im.Name())
		}
		im.Close()
	}
	defer func() {
		if recover() == nil {
			t.Error("NewImpl with unknown paradigm should panic")
		}
	}()
	NewImpl("cobol", core.ConfigAll, 1)
}

func TestRatioAndSeconds(t *testing.T) {
	if got := Ratio(2*time.Second, time.Second); got != "2.00" {
		t.Errorf("Ratio = %q", got)
	}
	if got := Ratio(time.Second, 0); got != "-" {
		t.Errorf("Ratio with zero base = %q", got)
	}
	if got := Seconds(1500 * time.Millisecond); got != "1.500" {
		t.Errorf("Seconds = %q", got)
	}
}
