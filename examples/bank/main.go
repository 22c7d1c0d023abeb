// Bank: multi-handler reservations (paper §2.4, Fig. 5). Transfers
// reserve both accounts atomically, so no observer that also reserves
// both can ever see money in flight — the classic consistency property
// that single-object locking cannot give you.
//
// Run with: go run ./examples/bank
//
// The service-scale version of this program — a million accounts
// sharded over 64 handlers, driven over the wire through the
// zero-copy bytes-payload transport, with the same conservation
// invariant checked after every run — is
// `go run ./bench --workload bank` (see bench/bank.go, and README
// "Remote" for the payload API).
package main

import (
	"fmt"
	"sync"

	"scoopqs"
)

// account is state owned by one handler.
type account struct {
	name    string
	balance int
}

func main() {
	rt := scoopqs.New(scoopqs.ConfigAll)
	defer rt.Shutdown()

	const initial = 1000
	ha := rt.NewHandler("account-a")
	hb := rt.NewHandler("account-b")
	a := &account{name: "a", balance: initial}
	b := &account{name: "b", balance: initial}

	var wg sync.WaitGroup

	// Two transfer workers shuffling money in opposite directions.
	transfer := func(from, to *account, hFrom, hTo *scoopqs.Handler, amount, times int) {
		defer wg.Done()
		c := rt.NewClient()
		for i := 0; i < times; i++ {
			// Reserve BOTH accounts atomically. Sessions come back
			// ordered by handler id; pair them up by identity instead.
			c.SeparateMany([]*scoopqs.Handler{hFrom, hTo}, func(ss []*scoopqs.Session) {
				for _, s := range ss {
					s := s
					switch s.Handler() {
					case hFrom:
						s.Call(func() { from.balance -= amount })
					case hTo:
						s.Call(func() { to.balance += amount })
					}
				}
			})
		}
	}
	wg.Add(2)
	go transfer(a, b, ha, hb, 7, 500)
	go transfer(b, a, hb, ha, 3, 500)

	// An auditor concurrently checks the conservation invariant. It
	// also reserves both handlers, so it can never observe a half-done
	// transfer.
	violations := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := rt.NewClient()
		for i := 0; i < 200; i++ {
			c.SeparateMany([]*scoopqs.Handler{ha, hb}, func(ss []*scoopqs.Session) {
				var balA, balB int
				for _, s := range ss {
					s := s
					switch s.Handler() {
					case ha:
						balA = scoopqs.Query(s, func() int { return a.balance })
					case hb:
						balB = scoopqs.Query(s, func() int { return b.balance })
					}
				}
				if balA+balB != 2*initial {
					violations++
					fmt.Printf("INVARIANT VIOLATION: %d + %d != %d\n", balA, balB, 2*initial)
				}
			})
		}
	}()

	wg.Wait()

	c := rt.NewClient()
	c.SeparateMany([]*scoopqs.Handler{ha, hb}, func(ss []*scoopqs.Session) {
		balA := scoopqs.Query(ss[0], func() int { return a.balance })
		balB := scoopqs.Query(ss[1], func() int { return b.balance })
		fmt.Printf("final balances: a=%d b=%d (sum %d, expected %d)\n",
			balA, balB, balA+balB, 2*initial)
	})
	fmt.Printf("auditor checks with torn reads: %d (must be 0)\n", violations)
}
