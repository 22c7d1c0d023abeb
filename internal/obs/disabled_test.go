package obs_test

import (
	"testing"

	"scoopqs/internal/concbench"
	"scoopqs/internal/core"
	"scoopqs/internal/obs"
)

// The disabled contract, end to end: a threadring run through sched,
// core and the queues with the tracer off records nothing at all — no
// ring events, no histogram observations, no counter increments — in
// both execution modes. The same run with the tracer on is the control
// that shows the instrumentation sites are on this path.
func TestDisabledTracerRecordsNothing(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("recording enabled at test start")
	}
	p := concbench.Params{N: 2, M: 25, NT: 2000, NC: 80, Ring: 16, Creatures: 4}
	counters := func() (n int64) {
		for _, v := range obs.Default().Counters() {
			n += v
		}
		return n
	}
	for _, cfg := range []core.Config{core.ConfigAll, core.ConfigAll.WithWorkers(2)} {
		for _, on := range []bool{false, true} {
			if on {
				obs.Enable()
			}
			ev0, ob0, ct0 := obs.Emitted(), obs.Default().TotalObservations(), counters()
			err := concbench.Run("threadring", "Qs", cfg, p)
			obs.Disable()
			if err != nil {
				t.Fatal(err)
			}
			ev, ob, ct := obs.Emitted()-ev0, obs.Default().TotalObservations()-ob0, counters()-ct0
			if !on && (ev != 0 || ob != 0 || ct != 0) {
				t.Errorf("%s, tracer off: recorded %d events, %d observations, %d counter increments", cfg.Name(), ev, ob, ct)
			}
			if on && (ev == 0 || ob == 0) {
				t.Errorf("%s, tracer on: recorded %d events, %d observations", cfg.Name(), ev, ob)
			}
		}
	}
	obs.ResetAll()
}
