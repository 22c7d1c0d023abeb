package core

import (
	"runtime"
	"testing"
)

// The client-side rungs of the benchmark's ladder (bench/ladder.go), as
// go test benchmarks: core.query_elided_ns is BenchmarkQueryElided,
// core.query_packaged_ns is BenchmarkQueryPackaged, core.sync_pooled_ns
// is BenchmarkSyncPing and core.call_{dedicated,pooled}_ns is
// BenchmarkCallSync256's ns/call.
//
//	go test -run NONE -bench 'LocalQuery|Query(Elided|Packaged)|SyncPing|CallSync256' ./internal/core

// benchSession runs body inside one block on a fresh runtime under cfg.
func benchSession(cfg Config, body func(s *Session)) {
	rt := New(cfg)
	defer rt.Shutdown()
	rt.NewClient().Separate(rt.NewHandler("bench"), body)
}

// BenchmarkLocalQuery is the statically hoisted pull loop's element: a
// LocalQuery on a session synced once.
func BenchmarkLocalQuery(b *testing.B) {
	benchSession(ConfigAll, func(s *Session) {
		var x int64
		q := func() int64 { x++; return x }
		s.SyncNow()
		for b.Loop() {
			LocalQuery(s, q)
		}
	})
}

// BenchmarkQueryElided is Query on a synced session: the sync is elided
// dynamically and the query runs on the client.
func BenchmarkQueryElided(b *testing.B) {
	benchSession(ConfigAll, func(s *Session) {
		var x int64
		q := func() int64 { x++; return x }
		s.SyncNow()
		for b.Loop() {
			Query(s, q)
		}
	})
}

// BenchmarkQueryPackaged is QueryRemote on a ConfigAll session: the
// closure rides the client's query slot to the handler, and its boxed
// result rides back. Its int64 result boxes with an allocation once past
// 255, as in the ladder's rung.
func BenchmarkQueryPackaged(b *testing.B) {
	benchSession(ConfigAll, func(s *Session) {
		var x int64
		q := func() int64 { x++; return x }
		b.ReportAllocs()
		for b.Loop() {
			QueryRemote(s, q)
		}
	})
}

// BenchmarkSyncPing is one Call and a SyncNow per op on a session of the
// ladder's pooled configuration (ConfigAll on an explicit pool of
// GOMAXPROCS workers): a round trip after the block's first, which the
// client runs itself when the handler has lent it the session.
func BenchmarkSyncPing(b *testing.B) {
	benchSession(ConfigAll.WithWorkers(runtime.GOMAXPROCS(0)), func(s *Session) {
		var n int
		fn := func() { n++ }
		b.ReportAllocs()
		for b.Loop() {
			s.Call(fn)
			s.SyncNow()
		}
	})
}

// BenchmarkCallSync256 logs 256 calls and then syncs, per op, under the
// ladder's two configurations: the default pool (call_dedicated, named
// after the retired dedicated mode) and an explicit pool of GOMAXPROCS workers
// (call_pooled); ns/call is the per-call cost.
func BenchmarkCallSync256(b *testing.B) {
	const batch = 256
	for _, cfg := range []Config{ConfigAll, ConfigAll.WithWorkers(runtime.GOMAXPROCS(0))} {
		b.Run(cfg.Name(), func(b *testing.B) {
			benchSession(cfg, func(s *Session) {
				var n int
				fn := func() { n++ }
				b.ReportAllocs()
				for b.Loop() {
					for range batch {
						s.Call(fn)
					}
					s.SyncNow()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/call")
			})
		})
	}
}
