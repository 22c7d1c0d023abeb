package main

import (
	"scoopqs/internal/concbench"
	"scoopqs/internal/core"
)

// Sizes of one guard rep (constants; README "Probe numbers"). Every
// group has guardClients clients on every host: guard cost depends on
// the number of waiters, and blocked clients do not oversubscribe cores.
const (
	guardClients   = 4
	conditionIters = 3000  // per client, 2N clients
	prodconsItems  = 6000  // per producer
	chameneosMeets = 15000 // NC
	boundedItems   = 4000  // per producer
	santaM         = 50000 // trips = M/50
	turnIters      = 2500  // condition with one client per parity
	turnRuns       = 8     // condition runs per turn rep
)

// guardState is one set-up of the guard workload. The guard-heavy
// concbench workloads return their runtime's counters; stats sums them
// over the timed reps, statOps counts the operations they cover.
type guardState struct {
	tasks   []*task
	stats   core.Stats
	statOps int64
}

func buildGuard(scale int) (*guardState, error) {
	st := &guardState{}
	onStats := func(s core.Stats, ops int64) {
		st.stats = addStats(st.stats, s)
		st.statOps += ops
	}
	sz := func(n int) int { return max(n/scale, 2) }
	nm := func(p concbench.Params) int64 { return int64(p.N) * int64(p.M) }
	for _, m := range modes() {
		st.tasks = append(st.tasks,
			concTask("condition", "condition", m.name, m.cfg, concbench.Params{N: guardClients, M: sz(conditionIters)},
				func(p concbench.Params) int64 { return 2 * nm(p) }, nil),
			concTask("prodcons", "prodcons", m.name, m.cfg, concbench.Params{N: guardClients, M: sz(prodconsItems)}, nm, nil),
			concTask("chameneos", "chameneos", m.name, m.cfg, concbench.Params{NC: sz(chameneosMeets), Creatures: 4},
				func(p concbench.Params) int64 { return int64(p.NC) }, nil),
			concTask("boundedbuf", "boundedbuf", m.name, m.cfg, concbench.Params{N: guardClients, M: sz(boundedItems)}, nm, onStats),
			concTask("santa", "santa", m.name, m.cfg, concbench.Params{M: max(santaM/scale, 100)},
				func(p concbench.Params) int64 { return int64(max(p.M/50, 1)) }, onStats),
			turnTask(concTask("turn", "condition", m.name, m.cfg, concbench.Params{N: 1, M: sz(turnIters)},
				func(p concbench.Params) int64 { return 2 * nm(p) }, nil)),
		)
	}
	warmAll(st.tasks)
	st.stats, st.statOps = core.Stats{}, 0 // warm-up reps are not measured
	return st, nil
}

// turnTask makes one rep of t out of turnRuns runs. Which cores the two
// clients and the handler of a turn run land on is decided when the run
// starts and kept to its end, and it decides the run's speed: single
// runs of the same work took 24–100 ms. A rep that is several short runs
// draws the placement several times, so its time is the mix a user sees
// and not one draw.
func turnTask(t *task) *task {
	run := t.rep
	t.ops *= turnRuns
	t.rep = func() error {
		for i := 0; i < turnRuns; i++ {
			if err := run(); err != nil {
				return err
			}
		}
		return nil
	}
	return t
}

func runGuard(c *runCtx) (*report, error) {
	st, setupSecs, err := setUp(func() (*guardState, error) { return buildGuard(c.scale) }, func(*guardState) {})
	if err != nil {
		return nil, err
	}
	if c.tr != nil {
		return tracedGuard(c, st)
	}
	return runModes(c, st.tasks, setupSecs, "turn"), nil
}
