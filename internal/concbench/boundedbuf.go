package concbench

import (
	"sync"
	"sync/atomic"

	"scoopqs/internal/core"
)

// The bounded-buffer workload: a guard-heavy variant of prodcons where
// the buffer is tiny (capacity 2), so producers and consumers spend
// most of their time parked on wait conditions rather than moving
// data. It exists to stress SeparateWhen — guard retries, the
// guard-wait histogram, and wakeup fairness — at every pool size.
// Self-check: every produced value is consumed exactly once (sum
// conservation) and the buffer ends empty.

// boundedBufCap is deliberately small: the guard should fail often.
const boundedBufCap = 2

// BoundedBufQs runs p.N producers and p.N consumers, p.M items each,
// through a capacity-2 buffer handler guarded by SCOOP wait
// conditions. It returns the runtime's final stats snapshot so callers
// can report guard-retry counts alongside the timing.
func BoundedBufQs(cfg core.Config, p Params) (core.Stats, error) {
	rt := core.New(cfg)
	defer rt.Shutdown()
	bh := rt.NewHandler("buffer")
	var buf []int64 // owned by bh

	var wg sync.WaitGroup
	var consumed atomic.Int64
	hs := []*core.Handler{bh}

	producer := func(id int) {
		defer wg.Done()
		c := rt.NewClient()
		for k := 0; k < p.M; k++ {
			v := int64(id*p.M + k + 1)
			c.SeparateWhen(hs,
				func(ss []*core.Session) bool {
					return core.Query(ss[0], func() bool { return len(buf) < boundedBufCap })
				},
				func(ss []*core.Session) {
					ss[0].Call(func() { buf = append(buf, v) })
				})
		}
	}
	consumer := func() {
		defer wg.Done()
		c := rt.NewClient()
		var sum int64
		for k := 0; k < p.M; k++ {
			c.SeparateWhen(hs,
				func(ss []*core.Session) bool {
					return core.Query(ss[0], func() bool { return len(buf) > 0 })
				},
				func(ss []*core.Session) {
					sum += core.Query(ss[0], func() int64 {
						v := buf[0]
						buf = buf[1:]
						return v
					})
				})
		}
		consumed.Add(sum)
	}

	for w := 0; w < p.N; w++ {
		wg.Add(2)
		go producer(w)
		go consumer()
	}
	wg.Wait()

	var left int64
	c := rt.NewClient()
	c.Separate(bh, func(s *core.Session) {
		left = core.QueryRemote(s, func() int64 { return int64(len(buf)) })
	})
	st := rt.Stats()
	if err := checkCount("boundedbuf/Qs leftover", left, 0); err != nil {
		return st, err
	}
	// Sum of id*M+k+1 over all producers and items.
	var want int64
	for id := 0; id < p.N; id++ {
		want += int64(id)*int64(p.M)*int64(p.M) + int64(p.M)*(int64(p.M)+1)/2
	}
	return st, checkCount("boundedbuf/Qs sum", consumed.Load(), want)
}
