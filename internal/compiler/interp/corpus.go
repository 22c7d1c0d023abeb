package interp

import (
	"fmt"

	"scoopqs/internal/compiler/ir"
	"scoopqs/internal/core"
)

// This file holds the IR program corpus: small programs derived from
// the internal/semantics examples (Fig. 1's call interleaving, §2.3's
// query synchronization) plus the paper's worked optimization examples
// (the Fig. 14 copy loop, Fig. 15 with and without aliasing
// information) and a branchy control-flow case exercising the
// sync-set join. The same corpus backs the differential
// naive-vs-coalesced regression test, which runs every program on the
// local backend at several pool sizes and over the mux transport, and
// the benchmark's compiler ladder.

// A Program is one corpus entry: a textual IR function plus the
// runtime scaffolding needed to run it on any backend. Every handler
// variable is bound to its own handler running a fresh instance of the
// universal model (NewModel), so a program's observable Outcome is
// deterministic and backend-independent.
type Program struct {
	Name string
	Src  string
	// N is bound to the function's integer parameter "n", when it has
	// one.
	N int64
	// Arrays maps client-local array names to lengths (zero-filled
	// fresh per run).
	Arrays map[string]int
}

// NewModel mints a fresh handler state model: the method table every
// corpus handler exposes, closed over its own private state. The
// methods have the remote.Proc shape (args in, one int64 out) so the
// same model serves as local HandlerBinding methods and as server-side
// procedures.
//
//	foo/bar/baz — order-sensitive event log (checksum chaining)
//	add(v)      — accumulate v
//	get(i)      — i*i, counting reads (so elided vs executed query
//	              traffic is visible in the fingerprint)
//	put(i, v)   — accumulate (i+1)*v
//	fp()        — fingerprint of the entire state
func NewModel() map[string]func([]int64) int64 {
	var log, acc, reads, sum int64
	event := func(k int64) func([]int64) int64 {
		return func([]int64) int64 { log = log*31 + k; return 0 }
	}
	return map[string]func([]int64) int64{
		"foo": event(1),
		"bar": event(2),
		"baz": event(3),
		"add": func(a []int64) int64 { acc += a[0]; return 0 },
		"get": func(a []int64) int64 { reads++; return a[0] * a[0] },
		"put": func(a []int64) int64 { sum += (a[0] + 1) * a[1]; return 0 },
		"fp":  func([]int64) int64 { return log*1_000_003 + acc*7919 + reads*101 + sum },
	}
}

// Corpus returns the program corpus. The source texts parse with
// ir.Parse; tests assert that.
func Corpus() []Program {
	return []Program{
		{
			// Fig. 1's two separate blocks on one handler, sequentialized
			// into a single client: the logged order is the observable.
			Name: "fig1",
			Src: `func fig1() handlers(x) arrays() {
entry:
  async x foo()
  async x bar()
  sync x
  a = qlocal x fp()
  async x bar()
  async x baz()
  sync x
  b = qlocal x fp()
  r = add a, b
  ret r
}
`,
		},
		{
			// §2.3: a query is a synchronization point — the second block
			// of calls must observe the first query's state.
			Name: "querysync",
			N:    21,
			Src: `func querysync(n) handlers(x) arrays() {
entry:
  async x add(n)
  sync x
  a = qlocal x fp()
  async x add(a)
  sync x
  b = qlocal x fp()
  ret b
}
`,
		},
		{
			// Branchy control flow: the sync in "low" is redundant (the
			// entry sync dominates), the one at the join is not (the
			// "low" path desynchronizes with an async before rejoining).
			Name: "diamond",
			N:    7,
			Src: `func diamond(n) handlers(x) arrays() {
entry:
  async x add(n)
  sync x
  c = lt n, 10
  br c, low, high
low:
  sync x
  a = qlocal x fp()
  async x foo()
  jmp join
high:
  async x bar()
  sync x
  a = qlocal x fp()
  jmp join
join:
  sync x
  b = qlocal x fp()
  r = add a, b
  ret r
}
`,
		},
		{
			// Fig. 14: the copy loop with naive sync-per-read code — the
			// paper's flagship example. The pass hoists the loop to a
			// single sync; on the remote backend that deletes one wire
			// round-trip per iteration.
			Name:   "copyloop",
			N:      32,
			Arrays: map[string]int{"x": 32},
			Src: `func copyloop(n) handlers(h) arrays(x) {
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
`,
		},
		{
			// Fig. 15: the copy loop with an extra async on a possibly
			// aliased handler — the pass must keep every sync.
			Name:   "fig15",
			N:      16,
			Arrays: map[string]int{"x": 16},
			Src: `func fig15(n) handlers(h, ip) arrays(x) {
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
  async ip put(i, v)
  i = add i, 1
  jmp B2
B3:
  sync h
  ret i
}
`,
		},
		{
			// Fig. 15 with aliasing information: h and ip never alias, so
			// the loop syncs fall exactly like Fig. 14's.
			Name:   "fig15noalias",
			N:      16,
			Arrays: map[string]int{"x": 16},
			Src: `func fig15na(n) handlers(h, ip) arrays(x) noalias(h, ip) {
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
  async ip put(i, v)
  i = add i, 1
  jmp B2
B3:
  sync h
  ret i
}
`,
		},
	}
}

// Parse parses the program's source.
func (p Program) Parse() (*ir.Func, error) { return ir.Parse(p.Src) }

// Outcome is one run's observable result — the return value, the
// client-local arrays, and each handler's final state fingerprint.
// Backends and optimization variants must agree on it exactly.
type Outcome struct {
	Ret    int64
	Arrays map[string][]int64
	Fps    map[string]int64
}

// Equal reports whether two outcomes match exactly.
func (o Outcome) Equal(q Outcome) bool {
	if o.Ret != q.Ret || len(o.Arrays) != len(q.Arrays) || len(o.Fps) != len(q.Fps) {
		return false
	}
	for k, a := range o.Arrays {
		b, ok := q.Arrays[k]
		if !ok || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	for k, v := range o.Fps {
		if q.Fps[k] != v {
			return false
		}
	}
	return true
}

// String renders an outcome for error messages.
func (o Outcome) String() string {
	return fmt.Sprintf("ret=%d arrays=%v fps=%v", o.Ret, o.Arrays, o.Fps)
}

// env assembles the client-local half of an Env (params, arrays) for
// one run. The handler bindings are the backend-specific half.
func (p Program) env(f *ir.Func, handlers map[string]SessionOps) *Env {
	ints := map[string]int64{}
	if len(f.Params) == 1 {
		ints[f.Params[0]] = p.N
	}
	arrays := map[string][]int64{}
	for name, n := range p.Arrays {
		arrays[name] = make([]int64, n)
	}
	return &Env{Ints: ints, Arrays: arrays, Handlers: handlers}
}

// RunLocal executes f (the program's function, naive or transformed)
// against rt, at rt's pool size, with a
// fresh handler and model per handler variable. It returns the
// observable outcome and the per-run counters. Counters are snapshotted
// before the fingerprint queries, so they count exactly the program's
// own operations.
func (p Program) RunLocal(rt *core.Runtime, f *ir.Func) (Outcome, Counters, error) {
	var out Outcome
	var ctrs Counters
	hs := make([]*core.Handler, len(f.Handlers))
	for i, hv := range f.Handlers {
		hs[i] = rt.NewHandler(p.Name + "." + hv)
	}
	c := rt.NewClient()
	var runErr error
	c.SeparateMany(hs, func(ss []*core.Session) {
		bindings := map[string]SessionOps{}
		order := make([]HandlerBinding, len(f.Handlers))
		for i, hv := range f.Handlers {
			order[i] = HandlerBinding{Session: ss[i], Methods: NewModel(), Counters: &ctrs}
			bindings[hv] = order[i]
		}
		env := p.env(f, bindings)
		out.Ret, runErr = Run(f, env)
		if runErr != nil {
			return
		}
		out.Arrays = env.Arrays
		snap := ctrs // fingerprints below are bookkeeping, not program ops
		out.Fps = map[string]int64{}
		for i, hv := range f.Handlers {
			v, err := order[i].Query("fp", nil)
			if err != nil {
				runErr = err
				return
			}
			out.Fps[hv] = v
		}
		ctrs = snap
	})
	return out, ctrs, runErr
}
