package interp

import (
	"net"
	"testing"

	"scoopqs/internal/compiler/ir"
	"scoopqs/internal/compiler/passes"
	"scoopqs/internal/core"
	"scoopqs/internal/remote"
)

// serveProgram brings up a fresh server exposing p's handler variables
// (each with fresh model state) and returns a connected mux.
func serveProgram(t *testing.T, p Program, hvs []string) (*remote.Mux, func()) {
	t.Helper()
	rt := core.New(core.ConfigAll)
	srv := remote.NewServer(rt)
	for _, hv := range hvs {
		h := rt.NewHandler(p.RemoteHandlerName(hv))
		srv.Expose(p.RemoteHandlerName(hv), h, remoteProcs(NewModel()))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Shutdown()
		t.Fatal(err)
	}
	go srv.Serve(ln)
	mux, err := remote.DialMux("tcp", ln.Addr().String())
	if err != nil {
		srv.Close()
		rt.Shutdown()
		t.Fatal(err)
	}
	return mux, func() {
		mux.Close()
		srv.Close()
		rt.Shutdown()
	}
}

// remoteProcs adapts a model's method table to remote.Procs (the
// shapes are identical; the conversion is nominal).
func remoteProcs(m map[string]func([]int64) int64) map[string]remote.Proc {
	out := make(map[string]remote.Proc, len(m))
	for k, fn := range m {
		out[k] = remote.Proc(fn)
	}
	return out
}

// runRemoteOnce serves p fresh, runs f over the wire, and tears down.
func runRemoteOnce(t *testing.T, p Program, hvs []string, run func(*remote.Mux) (Outcome, Counters, error)) (Outcome, Counters) {
	t.Helper()
	mux, done := serveProgram(t, p, hvs)
	defer done()
	out, ctrs, err := run(mux)
	if err != nil {
		t.Fatal(err)
	}
	return out, ctrs
}

// Every corpus program must produce the identical outcome on every
// backend — the default pool, pools of 1 and 4 workers, and the mux
// transport against a live server — naive and
// optimized, and the optimized variant must never pay more round-trips.
func TestCorpusRemoteMatchesLocal(t *testing.T) {
	for _, p := range Corpus() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			naiveF, err := p.Parse()
			if err != nil {
				t.Fatal(err)
			}
			res, err := passes.Coalesce(naiveF)
			if err != nil {
				t.Fatal(err)
			}
			variants := []struct {
				name string
				f    *ir.Func
			}{{"naive", naiveF}, {"optimized", res.Func}}

			runLocal := func(workers int, f *ir.Func) Outcome {
				rt := core.New(core.ConfigStatic.WithWorkers(workers))
				defer rt.Shutdown()
				out, _, err := p.RunLocal(rt, f)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			local := runLocal(0, naiveF)
			for _, workers := range []int{0, 1, 4} { // 0 = the default pool
				for _, v := range variants {
					if out := runLocal(workers, v.f); !local.Equal(out) {
						t.Errorf("workers=%d %s diverged from default naive:\n  want: %s\n  got:  %s", workers, v.name, local, out)
					}
				}
			}

			var roundTrips [2]int64
			for i, v := range variants {
				out, ctrs := runRemoteOnce(t, p, v.f.Handlers, func(m *remote.Mux) (Outcome, Counters, error) {
					return p.RunRemote(m, v.f)
				})
				if !local.Equal(out) {
					t.Errorf("remote %s diverged from local:\n  local:  %s\n  remote: %s", v.name, local, out)
				}
				roundTrips[i] = ctrs.RoundTrips
			}
			if roundTrips[1] > roundTrips[0] {
				t.Errorf("optimized paid more round-trips (%d) than naive (%d)", roundTrips[1], roundTrips[0])
			}
		})
	}
}

// The Fig. 14 acceptance check in miniature: statically coalescing the
// copy loop deletes exactly one wire round-trip per iteration plus the
// exit sync — N+1 in total.
func TestCopyLoopRemoteRoundTripReduction(t *testing.T) {
	var p Program
	for _, q := range Corpus() {
		if q.Name == "copyloop" {
			p = q
		}
	}
	naiveF, err := p.Parse()
	if err != nil {
		t.Fatal(err)
	}
	res, err := passes.Coalesce(naiveF)
	if err != nil {
		t.Fatal(err)
	}

	// Round-trips as the interpreter's adapter counts them and as the
	// transport itself counts reply-expecting frames.
	run := func(f *ir.Func) (ctrs Counters, wire uint64) {
		_, ctrs = runRemoteOnce(t, p, f.Handlers, func(m *remote.Mux) (Outcome, Counters, error) {
			out, c, err := p.RunRemote(m, f)
			wire = m.Stats().RoundTrips
			return out, c, err
		})
		return ctrs, wire
	}
	cNaive, wireNaive := run(naiveF)
	cOpt, wireOpt := run(res.Func)

	// Naive: one sync per iteration plus header and exit syncs (N+2)
	// and one qlocal read per iteration (N) -> 2N+2 round-trips.
	// Optimized: the single remaining sync plus the N reads -> N+1.
	if want := 2*p.N + 2; cNaive.RoundTrips != want {
		t.Errorf("naive RoundTrips = %d, want %d", cNaive.RoundTrips, want)
	}
	if want := p.N + 1; cOpt.RoundTrips != want {
		t.Errorf("optimized RoundTrips = %d, want %d", cOpt.RoundTrips, want)
	}
	if got, want := cNaive.RoundTrips-cOpt.RoundTrips, p.N+1; got != want {
		t.Errorf("round-trip reduction = %d, want %d", got, want)
	}
	// The outcome fingerprint queries cancel between the two variants.
	if got, want := wireNaive-wireOpt, uint64(p.N+1); got != want {
		t.Errorf("MuxStats.RoundTrips reduction = %d (naive %d, optimized %d), want %d", got, wireNaive, wireOpt, want)
	}
}
