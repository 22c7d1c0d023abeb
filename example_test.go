package scoopqs_test

import (
	"fmt"
	"sync"

	"scoopqs"
)

// The basic vocabulary: a handler owns state; a client logs
// asynchronous calls and synchronous queries inside a separate block.
func Example() {
	rt := scoopqs.New(scoopqs.ConfigAll)
	defer rt.Shutdown()

	counter := rt.NewHandler("counter")
	n := 0 // owned by counter

	c := rt.NewClient()
	c.Separate(counter, func(s *scoopqs.Session) {
		s.Call(func() { n += 40 })
		s.Call(func() { n += 2 })
		fmt.Println(scoopqs.Query(s, func() int { return n }))
	})
	// Output: 42
}

// Reasoning guarantee 2: calls from one separate block execute with no
// interleaving from other clients, so a block's delta is exactly its
// own contribution.
func Example_noInterleaving() {
	rt := scoopqs.New(scoopqs.ConfigAll)
	defer rt.Shutdown()

	h := rt.NewHandler("acc")
	total := 0

	var wg sync.WaitGroup
	deltas := make(chan int, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := rt.NewClient()
			c.Separate(h, func(s *scoopqs.Session) {
				before := scoopqs.Query(s, func() int { return total })
				for i := 0; i < 100; i++ {
					s.Call(func() { total++ })
				}
				after := scoopqs.Query(s, func() int { return total })
				deltas <- after - before
			})
		}()
	}
	wg.Wait()
	close(deltas)
	for d := range deltas {
		fmt.Println(d)
	}
	// Output:
	// 100
	// 100
	// 100
	// 100
}

// Multi-handler reservations are atomic: an observer reserving the
// same pair can never see a transfer halfway done.
func Example_multiReservation() {
	rt := scoopqs.New(scoopqs.ConfigAll)
	defer rt.Shutdown()

	ha := rt.NewHandler("a")
	hb := rt.NewHandler("b")
	balA, balB := 100, 100

	c := rt.NewClient()
	c.SeparateMany([]*scoopqs.Handler{ha, hb}, func(ss []*scoopqs.Session) {
		ss[0].Call(func() { balA -= 30 })
		ss[1].Call(func() { balB += 30 })
	})
	c.SeparateMany([]*scoopqs.Handler{ha, hb}, func(ss []*scoopqs.Session) {
		a := scoopqs.Query(ss[0], func() int { return balA })
		b := scoopqs.Query(ss[1], func() int { return balB })
		fmt.Println(a, b, a+b)
	})
	// Output: 70 130 200
}

// Futures: QueryAsync logs an asynchronous query and returns at once;
// the future resolves once the handler reaches the query, after every
// call logged before it, and Client.Await waits for it outside the
// block.
func Example_futures() {
	rt := scoopqs.New(scoopqs.ConfigAll.WithWorkers(2))
	defer rt.Shutdown()

	counter := rt.NewHandler("counter")
	n := 0

	c := rt.NewClient()
	var fut *scoopqs.Future
	c.Separate(counter, func(s *scoopqs.Session) {
		for i := 0; i < 5; i++ {
			s.Call(func() { n++ })
		}
		fut = scoopqs.QueryAsync(s, func() int { return n * 2 })
	})
	v, err := c.Await(fut)
	fmt.Println(v, err)
	// Output: 10 <nil>
}

// Wait conditions: the block runs once its guard holds, re-evaluated
// whenever another client's block on the handler completes.
func Example_waitCondition() {
	rt := scoopqs.New(scoopqs.ConfigAll)
	defer rt.Shutdown()

	box := rt.NewHandler("box")
	var items []string

	got := make(chan string, 1)
	go func() {
		c := rt.NewClient()
		c.SeparateWhen([]*scoopqs.Handler{box},
			func(ss []*scoopqs.Session) bool {
				return scoopqs.Query(ss[0], func() bool { return len(items) > 0 })
			},
			func(ss []*scoopqs.Session) {
				got <- scoopqs.Query(ss[0], func() string { return items[0] })
			})
	}()

	c := rt.NewClient()
	c.Separate(box, func(s *scoopqs.Session) {
		s.Call(func() { items = append(items, "hello") })
	})
	fmt.Println(<-got)
	// Output: hello
}
