// Package interp executes compiler IR against the real SCOOP/Qs
// runtime. It is the stand-in for the paper's generated native code:
// each sync instruction becomes a session sync, each async becomes a
// packaged asynchronous call, and each qlocal becomes a client-side
// local query — which every backend refuses to run on an unsynced
// session, so a miscompiled (unsound) sync-coalescing pass is caught
// at execution time rather than producing a silent race.
//
// The interpreter is written against the SessionOps interface, not a
// concrete session type, so the same IR program runs unchanged on any
// backend: a local core.Session at any pool size (HandlerBinding), or a
// remote.Session over the mux transport (RemoteBinding), where every
// sync and local query is a real wire round-trip and the static pass's
// eliminated syncs become eliminated round-trips.
package interp

import (
	"fmt"

	"scoopqs/internal/compiler/ir"
	"scoopqs/internal/core"
)

// SessionOps is the narrow session surface the interpreter targets —
// the four operations compiled code needs from a separate block,
// abstracted over local and remote backends.
type SessionOps interface {
	// Call logs an asynchronous call of the named method; it must not
	// wait for execution.
	Call(fn string, args []int64) error
	// Query runs the named method synchronously (sync semantics
	// included) and returns its result.
	Query(fn string, args []int64) (int64, error)
	// Sync brings the handler to a quiescent point: on return, every
	// previously logged call has executed.
	Sync() error
	// LocalQuery evaluates the named method client-side. It is only
	// legal on a synced session and must panic otherwise — the
	// soundness backstop for the static sync-coalescing pass.
	LocalQuery(fn string, args []int64) (int64, error)
}

// Counters are per-run execution counters, filled in by the backend
// adapters as the interpreter drives them. Comparing the counters of a
// naive and a syncset-optimized run of the same program measures the
// paper's §3.4.2 effect directly: statically eliminated syncs show up
// as a lower SyncsExecuted — and, on the remote backend, as fewer
// wire RoundTrips for identical results.
type Counters struct {
	SyncsExecuted int64 // sync instructions that reached the backend
	AsyncCalls    int64 // asynchronous calls logged
	LocalQueries  int64 // client-side (post-sync) queries
	Queries       int64 // synchronous queries
	RoundTrips    int64 // wire round-trips paid (remote backends only)
}

// The nil-safe bump helpers let bindings run uncounted (nil Counters).
func (c *Counters) sync() {
	if c != nil {
		c.SyncsExecuted++
	}
}

func (c *Counters) async() {
	if c != nil {
		c.AsyncCalls++
	}
}

func (c *Counters) local() {
	if c != nil {
		c.LocalQueries++
	}
}

func (c *Counters) query() {
	if c != nil {
		c.Queries++
	}
}

func (c *Counters) roundTrip() {
	if c != nil {
		c.RoundTrips++
	}
}

// HandlerBinding connects an IR handler variable to a live local
// session and the methods callable on the handler's state. Method
// closures must only touch state owned by that handler. It implements
// SessionOps for the in-process backend.
type HandlerBinding struct {
	Session *core.Session
	Methods map[string]func(args []int64) int64
	// Counters, when non-nil, receives this binding's per-run counts.
	Counters *Counters
}

func (hb HandlerBinding) method(fn string) (func([]int64) int64, error) {
	m, ok := hb.Methods[fn]
	if !ok {
		return nil, fmt.Errorf("no method %q", fn)
	}
	return m, nil
}

// Call implements SessionOps via core.Session.Call.
func (hb HandlerBinding) Call(fn string, args []int64) error {
	method, err := hb.method(fn)
	if err != nil {
		return err
	}
	hb.Counters.async()
	hb.Session.Call(func() { method(args) })
	return nil
}

// Query implements SessionOps via core.Query (client-side after a
// handshake under the elision configs, packaged otherwise).
func (hb HandlerBinding) Query(fn string, args []int64) (int64, error) {
	method, err := hb.method(fn)
	if err != nil {
		return 0, err
	}
	hb.Counters.query()
	return core.Query(hb.Session, func() int64 { return method(args) }), nil
}

// Sync implements SessionOps via core.Session.Sync (dynamic elision
// applies under the Dynamic/All configurations).
func (hb HandlerBinding) Sync() error {
	hb.Counters.sync()
	hb.Session.Sync()
	return nil
}

// LocalQuery implements SessionOps via core.LocalQuery, which panics
// on an unsynced session.
func (hb HandlerBinding) LocalQuery(fn string, args []int64) (int64, error) {
	method, err := hb.method(fn)
	if err != nil {
		return 0, err
	}
	hb.Counters.local()
	return core.LocalQuery(hb.Session, func() int64 { return method(args) }), nil
}

// Env is the execution environment for one run of a function.
type Env struct {
	// Ints provides values for integer parameters.
	Ints map[string]int64
	// Arrays provides client-local arrays.
	Arrays map[string][]int64
	// Handlers binds handler variables to backend sessions.
	Handlers map[string]SessionOps
	// Funcs provides client-local functions for OpCall. A function's
	// effect on handler state must be consistent with its attribute.
	Funcs map[string]func(args []int64) int64

	// MaxSteps bounds execution (0 = 50M) to turn non-terminating IR
	// into an error instead of a hang.
	MaxSteps int
}

// Run executes f and returns its return value.
func Run(f *ir.Func, env *Env) (int64, error) {
	if err := f.Validate(); err != nil {
		return 0, err
	}
	m := &machine{f: f, env: env, locals: map[string]int64{}}
	for _, p := range f.Params {
		v, ok := env.Ints[p]
		if !ok {
			return 0, fmt.Errorf("interp: missing integer parameter %q", p)
		}
		m.locals[p] = v
	}
	for _, h := range f.Handlers {
		if _, ok := env.Handlers[h]; !ok {
			return 0, fmt.Errorf("interp: missing handler binding %q", h)
		}
	}
	for _, a := range f.Arrays {
		if _, ok := env.Arrays[a]; !ok {
			return 0, fmt.Errorf("interp: missing array %q", a)
		}
	}
	return m.run()
}

type machine struct {
	f      *ir.Func
	env    *Env
	locals map[string]int64
	steps  int
}

func (m *machine) arg(a ir.Arg) (int64, error) {
	if a.IsConst {
		return a.Imm, nil
	}
	v, ok := m.locals[a.Var]
	if !ok {
		return 0, fmt.Errorf("interp: read of undefined local %q", a.Var)
	}
	return v, nil
}

func (m *machine) argList(args []ir.Arg) ([]int64, error) {
	out := make([]int64, len(args))
	for i, a := range args {
		v, err := m.arg(a)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (m *machine) run() (int64, error) {
	max := m.env.MaxSteps
	if max == 0 {
		max = 50_000_000
	}
	b := m.f.Entry()
	for {
		// Terminators count against the budget too, so an empty
		// infinite loop still trips it.
		m.steps++
		if m.steps > max {
			return 0, fmt.Errorf("interp: step budget exceeded (%d)", max)
		}
		for i := range b.Instrs {
			m.steps++
			if m.steps > max {
				return 0, fmt.Errorf("interp: step budget exceeded (%d)", max)
			}
			if err := m.exec(&b.Instrs[i]); err != nil {
				return 0, fmt.Errorf("interp: %s[%d] %s: %w", b.Name, i, b.Instrs[i].String(), err)
			}
		}
		switch b.Term.Kind {
		case ir.TermRet:
			if !b.Term.HasVal {
				return 0, nil
			}
			return m.arg(b.Term.Val)
		case ir.TermJmp:
			b = m.f.Block(b.Term.To)
		case ir.TermBr:
			c, err := m.arg(b.Term.Cond)
			if err != nil {
				return 0, err
			}
			if c != 0 {
				b = m.f.Block(b.Term.To)
			} else {
				b = m.f.Block(b.Term.Else)
			}
		}
	}
}

func (m *machine) exec(in *ir.Instr) error {
	switch in.Op {
	case ir.OpConst:
		m.locals[in.Dst] = in.Imm
	case ir.OpBin:
		a, err := m.arg(in.A)
		if err != nil {
			return err
		}
		b, err := m.arg(in.B)
		if err != nil {
			return err
		}
		if (in.Bin == ir.BinDiv || in.Bin == ir.BinMod) && b == 0 {
			return fmt.Errorf("division by zero")
		}
		m.locals[in.Dst] = in.Bin.Eval(a, b)
	case ir.OpSync:
		return m.env.Handlers[in.Handler].Sync()
	case ir.OpAsync:
		args, err := m.argList(in.Args)
		if err != nil {
			return err
		}
		if err := m.env.Handlers[in.Handler].Call(in.Fn, args); err != nil {
			return fmt.Errorf("handler %q: %w", in.Handler, err)
		}
	case ir.OpQLocal:
		args, err := m.argList(in.Args)
		if err != nil {
			return err
		}
		v, err := m.env.Handlers[in.Handler].LocalQuery(in.Fn, args)
		if err != nil {
			return fmt.Errorf("handler %q: %w", in.Handler, err)
		}
		m.locals[in.Dst] = v
	case ir.OpCall:
		fn, ok := m.env.Funcs[in.Fn]
		if !ok {
			return fmt.Errorf("unknown function %q", in.Fn)
		}
		args, err := m.argList(in.Args)
		if err != nil {
			return err
		}
		v := fn(args)
		if in.Dst != "" {
			m.locals[in.Dst] = v
		}
	case ir.OpLoad:
		arr := m.env.Arrays[in.Arr]
		i, err := m.arg(in.A)
		if err != nil {
			return err
		}
		if i < 0 || i >= int64(len(arr)) {
			return fmt.Errorf("load %s[%d] out of bounds (len %d)", in.Arr, i, len(arr))
		}
		m.locals[in.Dst] = arr[i]
	case ir.OpStore:
		arr := m.env.Arrays[in.Arr]
		i, err := m.arg(in.A)
		if err != nil {
			return err
		}
		v, err := m.arg(in.B)
		if err != nil {
			return err
		}
		if i < 0 || i >= int64(len(arr)) {
			return fmt.Errorf("store %s[%d] out of bounds (len %d)", in.Arr, i, len(arr))
		}
		arr[i] = v
	default:
		return fmt.Errorf("unknown opcode %d", in.Op)
	}
	return nil
}
