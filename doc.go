// Package scoopqs is a Go implementation of SCOOP/Qs, the efficient
// execution model for the SCOOP object-oriented concurrency model
// described in West, Nanz and Meyer, "Efficient and Reasonable
// Object-Oriented Concurrency" (PPoPP 2015).
//
// SCOOP associates every object with a handler — a thread of execution
// that is the only one allowed to touch the object. Clients interact
// with a handler inside separate blocks, which guarantee that the calls
// logged by one client execute in order with no interleaving from other
// clients, enabling sequential pre-/postcondition reasoning across
// threads while excluding data races by construction.
//
// SCOOP/Qs implements this with a queue of queues: each client gets a
// private queue per handler, reserved by a single non-blocking enqueue,
// so clients never wait to log asynchronous calls. Synchronous queries
// execute on the client after a lightweight sync handshake, and
// redundant handshakes are elided dynamically (and, for code compiled
// through the included IR pass, statically).
//
// # Wait conditions
//
// Client.SeparateWhen runs its body once a guard over the reserved
// handlers holds. Who evaluates the guard depends on who may read the
// state it depends on.
//
// A block on a single handler, with the queue-of-queues (Config.QoQ), is
// answered by that handler: the client reserves once, logs one guard
// request and parks. The handler owns the state and has run every
// earlier request, so it evaluates the guard in place, on its own
// goroutine (queries and calls the guard makes on its session execute
// there and then; a panic poisons the session and reaches the client as
// *HandlerError). True: it unparks the client as a sync would, and the
// body starts in the very state the guard saw, without a second
// evaluation. False: the block ends without effect and the client is
// filed in a list only the handler touches, waking nobody. Every
// ordinary END on that handler — the only point its state can have
// changed — walks the list in filing order and evaluates the filed
// guards again; the first that holds is started directly: its private
// queue becomes the one the handler drains and its client is unparked —
// no queue-of-queues entry, no lock, no channel, one park and one unpark
// per wait. The others stay filed, unevaluated, until that block's END
// walks the list again, so waiters whose guard holds run in filing
// order. A started waiter passes blocks already waiting in the
// queue-of-queues; such a block is overtaken by at most the waiters
// filed when it reserved, because new waiters only come out of that
// queue. A guard therefore may run on the handler's goroutine, any
// number of times: it must be side-effect-free on handler state and must
// not block.
//
// A block over several handlers keeps its guard on the client, since no
// single handler may read all the state: when the guard is false the
// client logs a wait marker in place of END on every session of the
// block and parks; each handler treats the marker as the end of the
// block and files the client; an ordinary END wakes a filed client,
// which reserves the whole set again itself, as one multi-reservation
// under the per-handler spinlocks taken in id order, re-evaluates the
// guard, and runs the body or logs the marker again. The block is filed
// on each of its handlers and a generation counter lets exactly one of
// them wake the client. Without the queue-of-queues (Config.QoQ false) a
// handler cannot hold a block for a parked client, because the client
// must hold the handler locks: guards run on the client there too, and
// the END unparks the client, which locks and reserves afresh. No
// handler ever reserves a block on a client's behalf.
//
// A handler that retires (Runtime.Shutdown) wakes the clients still
// filed with it, and their SeparateWhen panics with ErrShutdown.
//
// # Execution modes
//
// A handler is one resumable state machine, whatever runs it: idle (no
// known work), ready (made runnable, not yet picked up), running,
// running-dirty (a wake arrived during the run and forces one more pass
// before idling), awaiting (parked inside a request on an unresolved
// future, Handler.Await) and done. A wake — a reservation, a request
// logged on a parked handler, an awaited future resolving, Shutdown —
// moves it to ready exactly once, and whoever drives it then calls
// Handler.Step, which runs the paper's handler loop (Fig. 7) until the
// queues run dry, the future is unresolved, or a fairness budget of 1024
// requests is spent, and returns.
//
// Config.Workers chooses the driver. With Workers == 0 (the default, and
// the paper's design) every handler owns a goroutine that parks whenever
// Step returns and is unparked by the wake. With Workers == N > 0 the
// runtime starts an M:N executor: a pool of N workers drains a shared
// ready queue of handlers and moves on when Step returns, so a handler
// occupies a goroutine only while it has requests to run, and millions
// of mostly-idle handlers cost memory for their queues and nothing
// else. Everything else — queues, wake protocol, counters, what a
// deadlock report shows — is the same code; all tests run under both.
//
// What a handler is waiting for decides how it waits (sched.WaitPolicy;
// Parker.Park itself never spins). Inside a block the client owes the
// next request, so the handler polls its private queue, busily and then
// yielding (sched.Engaged: 8 busy polls, 56 yields), before it parks
// with the session still pinned — the run rule, and the §3.2 post-sync
// handshake, in which the handler stays at the client's disposal: a
// query's round trip is shorter than a park/unpark cycle. With no client
// nobody is about to serve it and it parks at once: parking is the
// yield, since Unpark readies exactly the parked goroutine, whereas
// every Gosched puts the waiter behind all runnable goroutines.
//
// Handler code that blocks a pool worker outright — a synchronous query
// to another handler, a wait condition — notifies the pool, which
// spawns a replacement worker, so delegation chains deeper than the
// pool cannot deadlock it. Stats exposes the state machine's counters
// (Schedules, HandlerParks, AwaitParks; the same in both modes) and the
// pool's (WorkerSpawns, WorkerParks, Steals, InjectorPushes,
// LocalPushes); `go run ./bench --workload handoff` compares the two
// drivers, on a 10k-handler token ring among others
// (concbench.ring10k_dedicated_s, concbench.ring10k_pooled_s).
//
// The pool itself is a work-stealing scheduler. Every worker owns a
// bounded lock-free deque (Chase–Lev: LIFO for the owner, FIFO for
// thieves) plus a one-slot next buffer; a handler that wakes another
// handler from worker code pushes it there, so a message chain stays
// on one warm worker and a lone handoff needs no wake at all (a
// blocking caller's local work is republished through the shared
// injector queue by the compensation hook instead). External wakes,
// deque overflow, and fairness-budget requeues go through the
// injector, which is FIFO; a handler that exhausts its per-step
// continuation budget re-readies there — never onto its own LIFO — so
// saturated handlers round-robin with everything else, and workers
// poll the injector periodically even while their own deque is hot.
// Ordering across queues is deliberately unpromised: per-handler
// ordering comes from the wake protocol (a handler is scheduled at
// most once until it runs), per-session FIFO from the private queues.
// See the README's "Scheduler" section for the ordering and wake-path
// details; the benchmark's sched.* per-layer metrics measure it.
//
// The pool also carries fork-join work: internal/sched exposes a
// TaskGroup (Spawn/Wait) and TBB-style skeletons (ParallelFor,
// ParallelReduce, ParallelSort) whose one-shot tasks ride the same
// deques as the handler steps — a spawn from worker code takes the
// owner's local fast path, idle workers steal it like any handler
// wake, so data-parallel kernels and message-passing handlers share
// one scheduler (Runtime.Executor exposes the pool; nil in dedicated
// mode). A spawner's own tasks run newest-first while thieves take
// its oldest — depth-first execution with breadth-first stealing —
// and handler fairness needs nothing new, since tasks are finite
// units under the same budget/steal machinery. Wait helps before it
// parks: it runs fork-join tasks found in its own queues, the
// injector, or victims' deques (handler runnables it uncovers are
// republished through the injector, never executed mid-join), making
// joins deadlock-free on a one-worker pool; an exhausted waiter parks
// inside a BlockingBegin/End bracket, so the compensation machinery
// treats a task join like any other blocking section — which is why
// Wait is legal inside a handler step. Task panics re-raise at the
// join. Stats adds TasksSpawned, TaskSteals, and TaskWaitParks; `go
// run ./bench --workload chain` runs the Cowichan chain on the pooled
// Qs runtime (cowichan.*_s, sched.task_steals_per_kop), and
// TestChainMatchesAcrossImpls checks every paradigm, including the
// fork-join "cxx" stand-in, against the sequential reference.
//
// Compensation is a last resort, though: the futures subsystem lets
// handler code wait without blocking at all. Session.CallFuture (and
// QueryAsync, its generic form) log a query whose result resolves a
// Future instead of round-tripping, and Handler.Await parks the handler
// state machine in a dedicated awaiting state: the handler is logically
// still inside the request that armed the await — queue wakes do not
// reschedule it, and no further request of the session runs — but its
// worker goes back to the pool. The future's completion makes the
// handler ready again and the continuation runs first, so the run
// rule's ordering is preserved while a depth-k delegation chain costs
// k state-machine parks instead of k compensation goroutines. Stats
// counts FuturesCreated and AwaitParks; TestAwaitSpawnReduction pins
// the effect and the benchmark reports core.call_future_ns and
// core.await_parks_per_kop (the remote client's query pipelining rides
// the same futures; the server mints none).
//
// The remote layer (internal/remote) extends the private-queue model
// over sockets with a multiplexed binary transport: one connection
// carries many logical clients (a Mux hands out RemoteSessions, each a
// wire channel), frames are a fixed-header/varint codec with zero
// allocations per message, and each connection is served by exactly
// one reader and one batching writer goroutine at both ends — the
// server demultiplexes every channel onto real core.Sessions and logs
// each request, call, query or sync, as one call whose handler writes
// the reply itself; in steady state the server allocates nothing per
// request (pooled request records, recycled payload slabs, replies
// encoded into the writer's batch). The write path is credit-flow
// controlled, so request logging is bounded as well as non-blocking:
// each channel holds a fixed request window both ends know (1024
// credits, given back as requests complete), the shared writer caps
// its pending batch at a byte budget, a connection holds a capped
// number of channels, and a stalled peer therefore pins bounded memory
// instead of an ever-growing batch. There is one client type (DialMux or
// NewMux, then Mux.NewSession) and one server option (IdleTimeout). The
// client-side cost is that the request-logging operations of a
// RemoteSession — Call, QueryAsync, Query, Sync (and any frame send at
// the byte budget) — can now park the calling goroutine until the
// window or the batch drains; they must not be called from a
// Future.OnComplete callback. `go run ./bench --workload bank` drives
// the transport at service scale (remote.* per-layer metrics), and
// TestSlowPeerBoundsServerWriter pins the stalled-peer bounds; see the
// README's "Remote" and "Flow control" sections for the API and the
// window mechanics, and the internal/remote package comment for the
// wire layout.
//
// All three layers are observable (internal/obs): scheduler dispatch
// waits, worker parks, steals, and task spawn/join; handler state
// transitions, await-park durations, and call/query/sync end-to-end
// latencies; remote flush sizes, writer stalls, credit waits, and
// per-channel round-trips. Events land in per-worker lock-free ring
// buffers exportable as Chrome trace_event JSON (Perfetto-loadable;
// every qsbench run takes -trace), durations additionally feed
// sharded power-of-two-bucket histograms in a process-global named
// registry (the benchmark's *_p50_* / *_p99_* metrics). Recording is
// off by default behind one process-global flag, and the disabled
// contract is strict: each instrumented site pays a single predictable
// branch — no atomics on the data path, no allocation, nothing recorded.
// TestDisabledTracerRecordsNothing enforces that contract, and the
// benchmark's obs.trace_overhead_ratio measures what switching
// recording on costs; see the README's "Observability" section for
// the event kinds and histogram semantics.
//
// The compiler stack (internal/compiler) closes the loop to the
// paper's static side: its interpreter executes IR programs against a
// narrow SessionOps interface satisfied by both local sessions
// (dedicated or pooled) and remote sessions over the mux transport,
// so the §3.4.2 sync-coalescing pass is measured where it matters —
// on the wire, every statically eliminated sync is an eliminated
// round-trip (the Fig. 14 copy loop drops from 2N+2 to N+1), and a
// local query against an unsynced session panics on every backend,
// catching unsound elision at execution time.
// TestCorpusRemoteMatchesLocal asserts exact outcome equality across
// all backends and TestCopyLoopRemoteRoundTripReduction the round-trip
// reduction; see the README's "Compiler & sync elimination" section.
//
// # Quick start
//
//	rt := scoopqs.New(scoopqs.ConfigAll)
//	defer rt.Shutdown()
//
//	counter := rt.NewHandler("counter") // owns n
//	n := 0
//
//	c := rt.NewClient()
//	c.Separate(counter, func(s *scoopqs.Session) {
//		s.Call(func() { n++ })                          // asynchronous
//		v := scoopqs.Query(s, func() int { return n })  // synchronous
//		fmt.Println(v)                                  // 1
//	})
//
// See the examples directory for multi-handler reservations, wait
// conditions, and the paper's benchmark programs.
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
	// block's requests once the block has ended.
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
// rule): the closure executes on the handler.
func QueryRemote[T any](s *Session, f func() T) T { return core.QueryRemote(s, f) }

// QueryAsync logs f as an asynchronous query: it returns immediately
// with a future that resolves with f's result once the handler reaches
// it, observing every previously logged call of the block. Wait with
// Client.Await (shutdown-aware), Handler.Await (parks the handler
// state machine instead of a pool worker), or the Future itself.
func QueryAsync[T any](s *Session, f func() T) *Future { return core.QueryAsync(s, f) }

// NewFuture returns an unresolved completion cell, for code that
// produces a value asynchronously itself (e.g. a Handler.Await
// continuation completing a promise it returned earlier).
func NewFuture() *Future { return future.New() }

// LocalQuery executes f on the client with no synchronization; legal
// only when the handler is synced on this session (after Sync/SyncNow
// with no intervening asynchronous call). The static sync-coalescing
// pass emits this pairing.
func LocalQuery[T any](s *Session, f func() T) T { return core.LocalQuery(s, f) }
