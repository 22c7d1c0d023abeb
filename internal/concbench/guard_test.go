package concbench

import (
	"fmt"
	"testing"

	"scoopqs/internal/core"
)

// guardModes are the scheduling modes the guard workloads must pass
// under: the default pool (GOMAXPROCS workers) and pools of 1 and 4
// workers (a single worker is the strongest starvation test — every
// guard retry must still make global progress), plus the unoptimized
// configuration.
var guardModes = []struct {
	name string
	cfg  core.Config
}{
	{"default", core.ConfigAll},
	{"pooled1", core.ConfigAll.WithWorkers(1)},
	{"pooled4", core.ConfigAll.WithWorkers(4)},
	{"none", core.ConfigNone},
}

func guardTestParams() Params {
	return Params{N: 3, M: 120}
}

func TestGuardWorkloads(t *testing.T) {
	for _, name := range GuardNames {
		for _, m := range guardModes {
			name, m := name, m
			t.Run(fmt.Sprintf("%s/%s", name, m.name), func(t *testing.T) {
				t.Parallel()
				if _, err := RunGuard(name, m.cfg, guardTestParams()); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestRunGuardUnknown(t *testing.T) {
	if _, err := RunGuard("nope", core.ConfigAll, guardTestParams()); err == nil {
		t.Fatal("unknown guard workload did not error")
	}
}

// The retry counter the guard benchmarks report counts the attempts of
// a wait condition that ended without effect, not guard evaluations.
// Scheduling can make a contended workload pass every guard first try
// (perfect producer/consumer alternation on one CPU), so this test
// forces failures deterministically: the guard itself refuses its first
// three evaluations while a second client keeps nudging the handler.
// Under ConfigAll the handler evaluates a single-handler guard itself:
// the first refusal ends the waiter's one reservation without effect —
// one retry — and the handler then re-evaluates in place at each of the
// nudger's ENDs, which are not attempts and reserve nothing.
func TestGuardRetriesCounted(t *testing.T) {
	rt := core.New(core.ConfigAll.WithWorkers(2))
	defer rt.Shutdown()
	h := rt.NewHandler("h")
	var turns int64 // owned by h
	done := make(chan struct{})
	wakerIdle := make(chan struct{})
	go func() {
		defer close(wakerIdle)
		c := rt.NewClient()
		for {
			select {
			case <-done:
				return
			default:
			}
			c.Separate(h, func(s *core.Session) { s.Call(func() { turns++ }) })
		}
	}()
	c := rt.NewClient()
	evals := 0 // the guard's; the wait's hand-offs order it
	c.SeparateWhen([]*core.Handler{h},
		func([]*core.Session) bool { evals++; return evals > 3 },
		func([]*core.Session) {})
	close(done)
	<-wakerIdle
	if st := rt.Stats(); evals != 4 || st.GuardRetries != 1 || st.MultiResGroups != 1 {
		t.Errorf("evaluations = %d, GuardRetries = %d, MultiResGroups = %d; want 4, 1 and 1", evals, st.GuardRetries, st.MultiResGroups)
	}
}
