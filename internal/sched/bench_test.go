package sched

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkExecutorDispatch measures ready→step round-trips: a set of
// self-rescheduling runnables ping-pong through the executor, so every
// operation is one Ready plus one Step dispatch. This is the pure
// scheduler-substrate cost, with no handler or queue work on top. The
// local variant re-readies through the worker's next slot (the fast
// re-ready path message chains use); with 64 pingers a pinger the
// stealTick poll takes from the injector displaces the one in the slot,
// so that row also pays injector pushes. The injector variant goes
// through the shared queue every time. The Workers sweep shows how
// dispatch throughput scales with pool size.
func BenchmarkExecutorDispatch(b *testing.B) {
	for _, mode := range []string{"local", "injector"} {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, pingers := range []int{1, 64} {
				name := fmt.Sprintf("%s/workers=%d/pingers=%d", mode, workers, pingers)
				local := mode == "local"
				b.Run(name, func(b *testing.B) {
					e := NewExecutor(workers)
					defer e.Stop()
					var wg sync.WaitGroup
					wg.Add(pingers)
					quota := b.N / pingers
					if quota < 1 {
						quota = 1
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < pingers; i++ {
						p := &pinger{e: e, left: quota, wg: &wg, local: local}
						p.task = NewTask(p)
						e.Ready(p.task)
					}
					wg.Wait()
				})
			}
		}
	}
}

// pinger re-readies itself until its quota is used up.
type pinger struct {
	e     *Executor
	task  *Task
	left  int
	local bool
	wg    *sync.WaitGroup
}

func (p *pinger) Step(w *Worker) {
	p.left--
	if p.left <= 0 {
		p.wg.Done()
		return
	}
	if p.local {
		p.e.ReadyLocal(w, p.task)
	} else {
		p.e.Ready(p.task)
	}
}
