// Go benchmarks of the runtime's hot paths: token-ring hand-off over
// many handlers, the request and reservation paths with
// allocation accounting, and the Fig. 14 copy loop before and after the
// static sync-coalescing pass. The paper's tables and figures have one
// driver, `go run ./cmd/qsbench`.

package scoopqs

import (
	"testing"

	"scoopqs/internal/compiler/interp"
	"scoopqs/internal/compiler/ir"
	"scoopqs/internal/compiler/passes"
	"scoopqs/internal/concbench"
	"scoopqs/internal/core"
)

// BenchmarkExecutorThreadring10k runs a threadring of 10k handlers —
// far more handlers than cores — on the default pool: an idle handler
// holds no goroutine, a hop takes a worker. Each iteration builds the
// ring, passes the token NT times, and tears the runtime down.
func BenchmarkExecutorThreadring10k(b *testing.B) {
	p := concbench.Params{N: 1, M: 1, NT: 20000, NC: 1, Ring: 10000, Creatures: 4}
	for i := 0; i < b.N; i++ {
		if err := concbench.Run("threadring", "Qs", core.ConfigAll, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionCall measures the request hot path — Session.Call
// logging plus handler execution — with allocation accounting. One
// separate block logs a batch of trivial calls and syncs; steady-state
// allocs/op is the per-request heap cost of the private-queue path
// (node recycling, call packaging, scheduler wakes).
func BenchmarkSessionCall(b *testing.B) {
	for _, m := range []struct {
		name    string
		workers int
	}{{"default", 0}, {"pooled4", 4}} {
		m := m
		b.Run(m.name, func(b *testing.B) {
			rt := core.New(core.ConfigAll.WithWorkers(m.workers))
			defer rt.Shutdown()
			h := rt.NewHandler("sink")
			c := rt.NewClient()
			var n int
			fn := func() { n++ } // hoisted: measure the runtime's cost, not the caller's closure
			b.ReportAllocs()
			b.ResetTimer()
			c.Separate(h, func(s *core.Session) {
				const batch = 256
				for i := 0; i < b.N; i += batch {
					k := batch
					if rem := b.N - i; rem < k {
						k = rem
					}
					for j := 0; j < k; j++ {
						s.Call(fn)
					}
					s.SyncNow()
				}
			})
			if n != b.N {
				b.Fatalf("ran %d calls, want %d", n, b.N)
			}
		})
	}
}

// BenchmarkReserve measures the reservation hot path — entering and
// ending an empty separate block — with allocation accounting. Each
// iteration enqueues the client's private queue into the handler's
// queue-of-queues and logs END; steady-state allocs/op is the heap
// cost of a reservation, which the MPSC node recycling brings to zero
// (one node used to be allocated per enqueue). A periodic sync keeps
// the handler from falling arbitrarily far behind the reserving
// client, which would grow the backlog — and allocate — without bound.
func BenchmarkReserve(b *testing.B) {
	for _, m := range []struct {
		name    string
		workers int
	}{{"default", 0}, {"pooled4", 4}} {
		m := m
		b.Run(m.name, func(b *testing.B) {
			rt := core.New(core.ConfigAll.WithWorkers(m.workers))
			defer rt.Shutdown()
			h := rt.NewHandler("sink")
			c := rt.NewClient()
			empty := func(s *core.Session) {}
			synced := func(s *core.Session) { s.SyncNow() }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%256 == 255 {
					c.Separate(h, synced)
					continue
				}
				c.Separate(h, empty)
			}
		})
	}
}

// BenchmarkFig14SyncCoalescing measures the paper's Fig. 14 copy loop
// executed by the IR interpreter before and after the static
// sync-coalescing pass — the per-experiment ablation of the compiler
// optimization itself.
func BenchmarkFig14SyncCoalescing(b *testing.B) {
	const src = `func copyloop(n) handlers(h) arrays(x) {
B1:
  i = const 0
  sync h
  jmp B2
B2:
  c = lt i, n
  br c, body, B3
body:
  sync h
  v = qlocal h get(i)
  store x, i, v
  i = add i, 1
  jmp B2
B3:
  sync h
  ret i
}
`
	naive, err := ir.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	res, err := passes.Coalesce(naive)
	if err != nil {
		b.Fatal(err)
	}
	const n = 512
	run := func(b *testing.B, f *ir.Func) {
		rt := core.New(core.ConfigStatic)
		defer rt.Shutdown()
		h := rt.NewHandler("h")
		c := rt.NewClient()
		data := make([]int64, n)
		for i := range data {
			data[i] = int64(i)
		}
		out := make([]int64, n)
		env := &interp.Env{
			Ints:   map[string]int64{"n": n},
			Arrays: map[string][]int64{"x": out},
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Separate(h, func(s *core.Session) {
				env.Handlers = map[string]interp.SessionOps{
					"h": interp.HandlerBinding{Session: s, Methods: map[string]func([]int64) int64{
						"get": func(a []int64) int64 { return data[a[0]] },
					}},
				}
				if _, err := interp.Run(f, env); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
	b.Run("naive", func(b *testing.B) { run(b, naive) })
	b.Run("coalesced", func(b *testing.B) { run(b, res.Func) })
}
