// Package scoopqs is a Go implementation of SCOOP/Qs, the efficient
// execution model for SCOOP object-oriented concurrency described in
// West, Nanz and Meyer, "Efficient and Reasonable Object-Oriented
// Concurrency" (PPoPP 2015).
//
// SCOOP gives every object one handler, the only thread of execution
// allowed to touch it. Clients reach a handler inside separate blocks,
// and the calls one block logs on a handler run in order with no call
// of another client in between, so pre- and postcondition reasoning
// stays sequential across threads and data races are excluded by
// construction.
//
// SCOOP/Qs makes this cheap with a queue of queues: a client reserves a
// handler by one non-blocking enqueue of its private queue, logs
// asynchronous calls without waiting, and runs synchronous queries on
// its own goroutine after a sync handshake, which is elided when the
// handler is known to be synced already (dynamically, and statically
// for code compiled through the included IR pass).
//
// The five configurations of the paper's §4 are ConfigNone,
// ConfigDynamic, ConfigStatic, ConfigQoQ and ConfigAll, the SCOOP/Qs
// runtime. Every handler of a runtime runs on one pool of workers, sized
// GOMAXPROCS by default and N by Config.WithWorkers(N); an idle handler
// holds no goroutine. Handler code blocks only through the runtime
// (queries, syncs, wait conditions), which the pool compensates for.
//
// Quick start:
//
//	rt := scoopqs.New(scoopqs.ConfigAll)
//	defer rt.Shutdown()
//
//	counter := rt.NewHandler("counter") // owns n
//	n := 0
//
//	c := rt.NewClient()
//	c.Separate(counter, func(s *scoopqs.Session) {
//		s.Call(func() { n++ })                         // asynchronous
//		v := scoopqs.Query(s, func() int { return n }) // synchronous
//		fmt.Println(v)                                 // 1
//	})
//
// README.md at the module root is the guide to everything else: wait
// conditions, futures, the remote transport, observability, the
// sync-coalescing pass, the benchmarks and the layout.
package scoopqs

import (
	"scoopqs/internal/core"
	"scoopqs/internal/future"
)

// Re-exported core types. The implementation lives in internal/core;
// these aliases form the supported public API.
type (
	// Runtime owns a set of handlers and a configuration.
	Runtime = core.Runtime
	// Handler is an active object executing logged requests in order.
	Handler = core.Handler
	// Session is the private queue a client holds inside a separate block.
	Session = core.Session
	// Client is a goroutine's context for entering separate blocks.
	Client = core.Client
	// Config selects one of the paper's runtime variants.
	Config = core.Config
	// Stats is a snapshot of runtime instrumentation counters. The
	// per-request ones (AsyncCalls, LocalQueries, SyncsElided) include a
	// block's requests once the block has ended; a QueryAsync is one
	// asynchronous call, so it counts in AsyncCalls and FuturesCreated.
	Stats = core.Stats
	// HandlerError reports a panic that occurred in a handler call.
	HandlerError = core.HandlerError
	// Future is the completion cell resolved by asynchronous queries
	// (Session.CallFuture, QueryAsync, the remote client's pipelined
	// queries): read it with Get, TryGet, Done or OnComplete.
	Future = future.Future
	// DeadlockCycle is a cycle in the wait-for graph found by
	// Runtime.DetectDeadlock (queries can deadlock, §2.5; reservations
	// cannot).
	DeadlockCycle = core.DeadlockCycle
)

// FormatDeadlocks renders Runtime.DetectDeadlock results for logs.
func FormatDeadlocks(cs []DeadlockCycle) string { return core.FormatDeadlocks(cs) }

// ErrShutdown is the panic value raised when a client enters a
// separate block after Runtime.Shutdown.
var ErrShutdown = core.ErrShutdown

// The five configurations evaluated in the paper's §4.
var (
	ConfigNone    = core.ConfigNone    // lock-based, packaged queries
	ConfigDynamic = core.ConfigDynamic // + dynamic sync coalescing
	ConfigStatic  = core.ConfigStatic  // + static sync coalescing
	ConfigQoQ     = core.ConfigQoQ     // queue-of-queues only
	ConfigAll     = core.ConfigAll     // everything (the SCOOP/Qs runtime)
)

// New creates a runtime with the given configuration.
func New(cfg Config) *Runtime { return core.New(cfg) }

// Query executes a synchronous query on a session and returns its
// result, using the configuration's query strategy.
func Query[T any](s *Session, f func() T) T { return core.Query(s, f) }

// QueryRemote forces the packaged-call query path (the unoptimized
// rule): f is the package. It rides the parked client's query slot to
// the handler, executes there, and its result, boxed through any,
// rides back.
func QueryRemote[T any](s *Session, f func() T) T { return core.QueryRemote(s, f) }

// QueryAsync logs f as an asynchronous query: it returns immediately
// with a future that resolves with f's result once the handler reaches
// it, observing every previously logged call of the block. Wait with
// Client.Await (shutdown-aware) or the Future itself.
func QueryAsync[T any](s *Session, f func() T) *Future { return core.QueryAsync(s, f) }

// LocalQuery executes f on the client with no synchronization; legal
// only when the handler is synced on this session (after Sync/SyncNow
// with no intervening asynchronous call). The static sync-coalescing
// pass emits this pairing.
func LocalQuery[T any](s *Session, f func() T) T { return core.LocalQuery(s, f) }
