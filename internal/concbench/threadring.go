package concbench

import (
	"sync"

	"scoopqs/internal/actor"
	"scoopqs/internal/core"
	"scoopqs/internal/stm"
)

// The threadring benchmark (Computer Language Benchmarks Game): Ring
// threads arranged in a cycle pass a token NT times; the thread holding
// the token when it reaches zero reports its position. Essentially
// single-threaded — it measures pure hand-off (context switch) cost.
// Self-check: the finishing thread index matches the modular
// arithmetic prediction.
func threadRingWant(p Params) int64 {
	return int64(p.NT % p.Ring)
}

// ThreadRingCxx gives each thread a mutex+cond guarded slot, the
// traditional shared-memory formulation.
func ThreadRingCxx(p Params) error {
	type slot struct {
		mu   sync.Mutex
		cond *sync.Cond
		val  int64
		full bool
	}
	slots := make([]*slot, p.Ring)
	for i := range slots {
		s := &slot{}
		s.cond = sync.NewCond(&s.mu)
		slots[i] = s
	}
	finished := make(chan int64, 1)
	var wg sync.WaitGroup
	for i := 0; i < p.Ring; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			me, next := slots[i], slots[(i+1)%p.Ring]
			for {
				me.mu.Lock()
				for !me.full {
					me.cond.Wait()
				}
				v := me.val
				me.full = false
				me.mu.Unlock()
				stop := v < 0
				if v == 0 {
					finished <- int64(i)
					stop = true
					v = -1 // poison the ring so everyone exits
				}
				next.mu.Lock()
				if v > 0 {
					next.val = v - 1
				} else {
					next.val = -1
				}
				next.full = true
				next.mu.Unlock()
				next.cond.Signal()
				if stop {
					return
				}
			}
		}()
	}
	slots[0].mu.Lock()
	slots[0].val = int64(p.NT)
	slots[0].full = true
	slots[0].mu.Unlock()
	slots[0].cond.Signal()
	got := <-finished
	wg.Wait()
	return checkCount("threadring/cxx finisher", got, threadRingWant(p))
}

// ThreadRingGo is the classic channel ring.
func ThreadRingGo(p Params) error {
	chans := make([]chan int64, p.Ring)
	for i := range chans {
		chans[i] = make(chan int64, 1)
	}
	finished := make(chan int64, 1)
	var wg sync.WaitGroup
	for i := 0; i < p.Ring; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			in, out := chans[i], chans[(i+1)%p.Ring]
			for v := range in {
				if v < 0 {
					out <- v
					return
				}
				if v == 0 {
					finished <- int64(i)
					out <- -1
					return
				}
				out <- v - 1
			}
		}()
	}
	chans[0] <- int64(p.NT)
	got := <-finished
	// Absorb the poison token once it has gone around.
	wg.Wait()
	for i := range chans {
		close(chans[i])
	}
	return checkCount("threadring/go finisher", got, threadRingWant(p))
}

// ThreadRingStm uses one token TVar per ring position with retry.
func ThreadRingStm(p Params) error {
	const empty = int64(-2)
	slots := make([]*stm.TVar, p.Ring)
	for i := range slots {
		slots[i] = stm.NewTVar(empty)
	}
	finished := make(chan int64, 1)
	var wg sync.WaitGroup
	for i := 0; i < p.Ring; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			me, next := slots[i], slots[(i+1)%p.Ring]
			for {
				v := stm.Atomically(func(tx *stm.Txn) any {
					v := tx.Read(me).(int64)
					if v == empty {
						tx.Retry()
					}
					tx.Write(me, empty)
					return v
				}).(int64)
				if v < 0 && v != empty {
					stm.Void(func(tx *stm.Txn) { tx.Write(next, v) })
					return
				}
				if v == 0 {
					finished <- int64(i)
					stm.Void(func(tx *stm.Txn) { tx.Write(next, int64(-1)) })
					return
				}
				stm.Void(func(tx *stm.Txn) { tx.Write(next, v-1) })
			}
		}()
	}
	stm.Void(func(tx *stm.Txn) { tx.Write(slots[0], int64(p.NT)) })
	got := <-finished
	wg.Wait()
	return checkCount("threadring/stm finisher", got, threadRingWant(p))
}

// ThreadRingActor is the natural actor formulation: each hop is one
// message.
func ThreadRingActor(p Params) error {
	finished := make(chan int64, 1)
	refs := make([]*actor.Ref, p.Ring)
	var wg sync.WaitGroup
	for i := 0; i < p.Ring; i++ {
		i := i
		wg.Add(1)
		refs[i] = actor.Spawn(func(c *actor.Ctx) {
			defer wg.Done()
			next := c.Receive().(*actor.Ref)
			for {
				v := c.Receive().(int64)
				if v < 0 {
					next.Send(v)
					return
				}
				if v == 0 {
					finished <- int64(i)
					next.Send(int64(-1))
					return
				}
				next.Send(v - 1)
			}
		})
	}
	for i := 0; i < p.Ring; i++ {
		refs[i].Send(refs[(i+1)%p.Ring])
	}
	refs[0].Send(int64(p.NT))
	got := <-finished
	wg.Wait()
	return checkCount("threadring/erlang finisher", got, threadRingWant(p))
}

// ThreadRingQs models each ring position as a handler; passing the
// token is an asynchronous call logged on the next handler by the
// current one (handler-as-client delegation), confirmed by a query —
// the synchronous receive semantics of the CLBG benchmark. The
// confirmation query is what makes this benchmark sensitive to the
// query-path optimizations, as in the paper's Table 2 (Dynamic
// coalescing speeds threadring up; QoQ alone does not). The confirming
// sync finds the next handler, just woken by the store, in the passing
// handler's own worker slot and runs it inline (core's inline sync), so
// a hop normally switches no goroutine.
func ThreadRingQs(cfg core.Config, p Params) error {
	rt := core.New(cfg)
	defer rt.Shutdown()
	hs := make([]*core.Handler, p.Ring)
	tokens := make([]int64, p.Ring) // tokens[i] owned by hs[i]
	for i := range hs {
		hs[i] = rt.NewHandler("ring")
	}
	finished := make(chan int64, 1)

	// pass is executed on handler i; it stores the token on hs[next],
	// confirms delivery with a query (waiting only for the store, never
	// for the rest of the ring), and then triggers the next hop.
	var pass func(i int, v int64)
	pass = func(i int, v int64) {
		if v == 0 {
			finished <- int64(i)
			return
		}
		next := (i + 1) % p.Ring
		hs[i].AsClient().Separate(hs[next], func(s *core.Session) {
			s.Call(func() { tokens[next] = v - 1 })
			got := core.Query(s, func() int64 { return tokens[next] })
			if got != v-1 {
				panic("threadring/Qs: token confirmation mismatch")
			}
			s.Call(func() { pass(next, v-1) })
		})
	}

	c := rt.NewClient()
	c.Separate(hs[0], func(s *core.Session) {
		s.Call(func() { pass(0, int64(p.NT)) })
	})
	got := <-finished
	return checkCount("threadring/Qs finisher", got, threadRingWant(p))
}
