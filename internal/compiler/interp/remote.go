package interp

import (
	"scoopqs/internal/compiler/ir"
	"scoopqs/internal/remote"
)

// RemoteBinding adapts a remote separate block (remote.Session, one
// mux channel with an open BEGIN) to SessionOps, so IR programs run
// unchanged over the wire. The handler's methods live server-side as
// remote.Procs (the int veneer over the bytes frames: arguments and
// results travel as zigzag varints); asynchronous calls are
// fire-and-forget frames, while Sync, Query, and LocalQuery each cost
// one wire round-trip — which is exactly why the static sync-coalescing
// pass matters here: every eliminated sync instruction is an eliminated
// round-trip.
//
// A local query has no client-side state to read over the wire, so it
// executes as a pipelined wire query — but only on a synced session.
// The binding tracks the synced state the way core.Session does
// (asyncs desynchronize, syncs and queries synchronize) and panics on
// a local query against an unsynced session, mirroring the runtime's
// soundness backstop for miscompiled sync elision.
type RemoteBinding struct {
	S *remote.Session
	// Counters, when non-nil, receives this binding's per-run counts.
	Counters *Counters

	synced bool
}

// NewRemoteBinding wraps a remote block for the interpreter, counting
// into ctrs (which may be nil).
func NewRemoteBinding(s *remote.Session, ctrs *Counters) *RemoteBinding {
	return &RemoteBinding{S: s, Counters: ctrs}
}

// Call implements SessionOps: a CALLB frame, no round-trip.
func (rb *RemoteBinding) Call(fn string, args []int64) error {
	rb.Counters.async()
	rb.synced = false
	return rb.S.Call(fn, args...)
}

// Query implements SessionOps: one pipelined QUERYB round-trip. It
// observes every previously logged call, so the session is synced
// afterwards.
func (rb *RemoteBinding) Query(fn string, args []int64) (int64, error) {
	rb.Counters.query()
	rb.Counters.roundTrip()
	v, err := rb.S.Query(fn, args...)
	if err == nil {
		rb.synced = true
	}
	return v, err
}

// Sync implements SessionOps: one SYNC round-trip through the server's
// non-blocking barrier.
func (rb *RemoteBinding) Sync() error {
	rb.Counters.sync()
	rb.Counters.roundTrip()
	err := rb.S.Sync()
	if err == nil {
		rb.synced = true
	}
	return err
}

// LocalQuery implements SessionOps. The handler state is remote, so
// the read is a wire query — but it is only legal where a client-side
// read would be, and panics otherwise exactly like core.LocalQuery.
func (rb *RemoteBinding) LocalQuery(fn string, args []int64) (int64, error) {
	if !rb.synced {
		panic("interp: local query on an unsynced remote session (unsound sync elision?)")
	}
	rb.Counters.local()
	rb.Counters.roundTrip()
	return rb.S.Query(fn, args...)
}

// RemoteHandlerName is the public name a corpus program's handler
// variable is exposed under on a server (see Program.RunRemote).
func (p Program) RemoteHandlerName(hv string) string { return p.Name + "." + hv }

// RunRemote executes f (the program's function, naive or transformed)
// over mux against a server that exposes each handler variable hv
// under RemoteHandlerName(hv) with a fresh NewModel instance. One
// logical client per handler variable is opened, blocks nested so the
// reservations overlap like a local SeparateMany. Handler state lives
// server-side, so a server must not be reused across runs of the same
// program. Counters are snapshotted before the fingerprint queries,
// exactly like RunLocal.
func (p Program) RunRemote(mux *remote.Mux, f *ir.Func) (Outcome, Counters, error) {
	var out Outcome
	var ctrs Counters
	n := len(f.Handlers)
	sessions := make([]*remote.Session, n)
	var open func(i int) error
	open = func(i int) error {
		if i < n {
			rs := mux.NewSession()
			defer rs.Close() //nolint:errcheck // teardown
			return rs.Separate(p.RemoteHandlerName(f.Handlers[i]), func(s *remote.Session) error {
				sessions[i] = s
				return open(i + 1)
			})
		}
		bindings := map[string]SessionOps{}
		order := make([]*RemoteBinding, n)
		for j, hv := range f.Handlers {
			order[j] = NewRemoteBinding(sessions[j], &ctrs)
			bindings[hv] = order[j]
		}
		env := p.env(f, bindings)
		var err error
		out.Ret, err = Run(f, env)
		if err != nil {
			return err
		}
		out.Arrays = env.Arrays
		snap := ctrs // fingerprints below are bookkeeping, not program ops
		out.Fps = map[string]int64{}
		for j, hv := range f.Handlers {
			v, err := order[j].Query("fp", nil)
			if err != nil {
				return err
			}
			out.Fps[hv] = v
		}
		ctrs = snap
		return nil
	}
	err := open(0)
	return out, ctrs, err
}
