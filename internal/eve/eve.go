// Package eve reproduces the structure of the paper's §4.5: the Qs
// execution techniques ported into the EVE/EiffelStudio runtime
// (EVE/Qs) and compared against the production SCOOP runtime.
//
// The real experiment needs EiffelStudio; what is reproducible is its
// shape — the same workloads on two runtimes that differ only in
// execution model, both carrying the EiffelStudio handicaps the paper
// names:
//
//   - handler IDs live in object headers, so every handler access goes
//     through "a secondary thread-safe data structure to lookup the
//     handler data" (modelled as a sync.Map lookup per interaction);
//   - a shadow stack for the garbage collector is maintained on every
//     call, "inhibiting efficient tight-loop optimizations" (modelled
//     as a per-call frame allocation and write).
//
// The two variants:
//
//   - EVE: the production runtime — lock-based SCOOP (ConfigNone) plus
//     the handicaps;
//   - EVE/Qs: queue-of-queues plus dynamic coalescing (the paper could
//     not port the static pass: "not implemented due to the lack of
//     robust static code analysis and transformation facilities in
//     EiffelStudio"), plus the same handicaps.
//
// The §4.5 numbers to compare shapes against: EVE/Qs over EVE is
// 11.7x on the concurrency benchmarks, 7.7x on the parallel ones, 9.7x
// overall; and EVE/Qs stays slower than SCOOP/Qs in absolute terms
// because the handicaps remain.
//
// Frozen: this package exists only for the paper's §4.5 comparison
// (internal/harness, `qsbench -experiment eve`). It gets no new
// features and is excluded from the benchmark's ladder claims.
package eve

import (
	"sync"
	"sync/atomic"
	"time"

	"scoopqs/internal/core"
)

// Variant names.
const (
	VariantEVE   = "EVE"    // lock-based + handicaps
	VariantEVEQs = "EVE/Qs" // QoQ + dynamic coalescing + handicaps
	VariantQs    = "Qs"     // ConfigAll, no handicaps (reference)
)

// Config returns the core configuration of a variant.
func Config(variant string) core.Config {
	switch variant {
	case VariantEVE:
		return core.ConfigNone
	case VariantEVEQs:
		return core.Config{QoQ: true, DynElide: true} // no StaticElide
	case VariantQs:
		return core.ConfigAll
	}
	panic("eve: unknown variant " + variant)
}

// handicapped reports whether a variant pays the EiffelStudio costs.
func handicapped(variant string) bool { return variant != VariantQs }

// frame is a shadow-stack entry; the pointer field forces a real heap
// allocation with a GC-visible write, like EiffelStudio's shadow
// stack.
type frame struct {
	self *frame
	id   int64
}

// Env is one benchmark environment: a runtime of the variant's
// configuration plus the handicap structures.
type Env struct {
	Variant string
	rt      *core.Runtime
	// registry is the secondary thread-safe handler-lookup structure.
	registry sync.Map // int64 -> *core.Handler
	nextID   atomic.Int64
	// sink keeps shadow frames alive long enough to defeat escape
	// analysis, as a real shadow stack would.
	sink atomic.Pointer[frame]
}

// NewEnv creates an environment for the variant.
func NewEnv(variant string) *Env {
	return &Env{Variant: variant, rt: core.New(Config(variant))}
}

// Close shuts the runtime down.
func (e *Env) Close() { e.rt.Shutdown() }

// Runtime exposes the underlying runtime.
func (e *Env) Runtime() *core.Runtime { return e.rt }

// NewHandler creates a handler and registers it in the lookup
// structure, returning its object-header ID.
func (e *Env) NewHandler(name string) int64 {
	id := e.nextID.Add(1)
	e.registry.Store(id, e.rt.NewHandler(name))
	return id
}

// Handler resolves an object-header ID through the secondary
// structure. Handicapped variants do this on every interaction; the
// reference variant resolves once and caches (modelling direct handler
// pointers).
func (e *Env) Handler(id int64) *core.Handler {
	h, ok := e.registry.Load(id)
	if !ok {
		panic("eve: unknown handler id")
	}
	return h.(*core.Handler)
}

// enterFrame pushes a shadow-stack frame (allocation + GC-visible
// write) for handicapped variants.
func (e *Env) enterFrame(id int64) {
	if !handicapped(e.Variant) {
		return
	}
	f := &frame{id: id}
	f.self = f
	e.sink.Store(f)
}

// Results of one variant across the two workload groups.
type Results struct {
	Variant  string
	Parallel time.Duration // array-pull workload
	Conc     time.Duration // coordination workload
}

// RunParallel is the §4.5 parallel-style workload: a worker handler
// owns an array; the client pulls it element by element, paying the
// handler lookup and shadow frame on every query in the handicapped
// variants (tight-loop optimization is exactly what the shadow stack
// inhibits).
func (e *Env) RunParallel(n int) time.Duration {
	id := e.NewHandler("eve-worker")
	data := make([]int64, n) // owned by the handler
	c := e.rt.NewClient()
	h := e.Handler(id)
	c.Separate(h, func(s *core.Session) {
		s.Call(func() {
			for i := range data {
				data[i] = int64(i)
			}
		})
	})

	start := time.Now()
	var hh *core.Handler
	if !handicapped(e.Variant) {
		hh = e.Handler(id) // resolve once
	}
	out := make([]int64, n)
	run := func(s *core.Session) {
		for i := 0; i < n; i++ {
			i := i
			e.enterFrame(id)
			if handicapped(e.Variant) {
				_ = e.Handler(id) // per-access lookup
			}
			out[i] = core.Query(s, func() int64 { return data[i] })
		}
	}
	if hh == nil {
		hh = e.Handler(id)
	}
	c.Separate(hh, run)
	elapsed := time.Since(start)
	for i := range out {
		if out[i] != int64(i) {
			panic("eve: parallel workload corrupted")
		}
	}
	return elapsed
}

// RunConc is the §4.5 coordination-style workload: clients compete for
// a counter handler, one reservation plus one asynchronous increment
// and one query per iteration, with the handicaps on every step.
func (e *Env) RunConc(clients, iters int) time.Duration {
	id := e.NewHandler("eve-counter")
	var counter int64 // owned by the handler

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := e.rt.NewClient()
			for i := 0; i < iters; i++ {
				e.enterFrame(id)
				h := e.Handler(id)
				c.Separate(h, func(s *core.Session) {
					s.Call(func() { counter++ })
					core.Query(s, func() int64 { return counter })
				})
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	c := e.rt.NewClient()
	var got int64
	c.Separate(e.Handler(id), func(s *core.Session) {
		got = core.QueryRemote(s, func() int64 { return counter })
	})
	if got != int64(clients*iters) {
		panic("eve: coordination workload lost updates")
	}
	return elapsed
}

// Run executes both workloads for a variant.
func Run(variant string, pullN, clients, iters int) Results {
	env := NewEnv(variant)
	defer env.Close()
	return Results{
		Variant:  variant,
		Parallel: env.RunParallel(pullN),
		Conc:     env.RunConc(clients, iters),
	}
}
