// Package core implements the SCOOP/Qs execution model of West, Nanz
// and Meyer, "Efficient and Reasonable Object-Oriented Concurrency"
// (PPoPP 2015): handlers (active objects), private queues, the
// queue-of-queues, separate blocks with single and multiple
// reservations, wait conditions, and both sync-coalescing
// optimizations.
//
// # Model
//
// Every piece of shared state is owned by exactly one Handler, an
// active object that executes requests one at a time on the runtime's
// worker pool. A client accesses a handler's state only inside a
// separate block (Client.Separate and friends), which reserves a
// private queue (Session) on the handler.
// Within the block the client logs asynchronous calls (Session.Call)
// and synchronous queries (Query). The runtime guarantees the paper's
// two reasoning properties:
//
//  1. local instructions of the client are synchronous and immediate;
//  2. calls logged on a handler within one separate block execute in
//     order, with no interleaved calls from other clients.
//
// # Configurations
//
// The five optimization configurations of the paper's §4 are selected
// by Config: None, Dynamic, Static, QoQ, and All. With QoQ enabled
// reservations are non-blocking enqueues into a lock-free
// queue-of-queues (Fig. 4); without it the runtime degrades to the
// original lock-based SCOOP semantics (Fig. 2) in which a client holds
// the handler's lock for the whole block.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"scoopqs/internal/sched"
)

// ErrShutdown is the panic value raised when a client enters a
// separate block (reserves a handler) after Runtime.Shutdown. It is
// also the error Client.Await returns when waiting past Shutdown on a
// future nothing resolved, so an awaiting client surfaces a clean
// error instead of hanging.
var ErrShutdown = errors.New("scoopqs: reservation after Shutdown")

// Config selects a SCOOP runtime variant. The zero value is the
// unoptimized baseline ("None" in the paper's §4).
type Config struct {
	// QoQ enables the queue-of-queues handler implementation: clients
	// reserve by enqueueing their private queue and never block.
	// Disabled, the runtime uses the original lock-based semantics: a
	// client owns the handler's lock for the duration of the block.
	QoQ bool

	// DynElide enables dynamic sync coalescing (§3.4.1): each private
	// queue records whether the handler is already synced, and
	// redundant sync round-trips are skipped at run time.
	DynElide bool

	// StaticElide declares that statically hoisted code paths
	// (Session.SyncNow + LocalQuery, as produced by the
	// compiler/passes sync-coalescing pass) may be used. Queries made
	// through the generic Query helper still sync each time, modelling
	// the conservatism of the static analysis on irregular code.
	StaticElide bool

	// Workers sizes the pool of worker goroutines that runs the handlers
	// of the runtime (the M:N executor, sched.Executor); zero means
	// runtime.GOMAXPROCS(0) at New. A handler is a resumable state
	// machine (Handler.Step): a worker takes it off a ready queue when
	// its queues gain work and moves on when it runs dry, so an idle
	// handler holds no goroutine. Handler code blocks only through the
	// runtime — queries, syncs, wait conditions, the parallel skeletons'
	// wait for their last chunks — and a worker blocked that way is
	// compensated with a replacement, so delegation chains deeper than
	// the pool cannot deadlock it. A channel, WaitGroup or I/O wait
	// inside handler code holds its worker.
	Workers int
}

// The five named configurations from the paper's evaluation.
var (
	ConfigNone    = Config{}
	ConfigDynamic = Config{DynElide: true}
	ConfigStatic  = Config{StaticElide: true}
	ConfigQoQ     = Config{QoQ: true}
	ConfigAll     = Config{QoQ: true, DynElide: true, StaticElide: true}
)

// Name returns the paper's label for the configuration, suffixed with
// the pool size when one is set explicitly.
func (c Config) Name() string {
	var base string
	switch {
	case c.QoQ && c.DynElide && c.StaticElide:
		base = "All"
	case c.QoQ && !c.DynElide && !c.StaticElide:
		base = "QoQ"
	case !c.QoQ && c.DynElide && !c.StaticElide:
		base = "Dynamic"
	case !c.QoQ && !c.DynElide && c.StaticElide:
		base = "Static"
	case !c.QoQ && !c.DynElide && !c.StaticElide:
		base = "None"
	default:
		base = fmt.Sprintf("Config{QoQ:%v,Dyn:%v,Static:%v}", c.QoQ, c.DynElide, c.StaticElide)
	}
	if c.Workers > 0 {
		return fmt.Sprintf("%s+pool%d", base, c.Workers)
	}
	return base
}

// WithWorkers returns a copy of the configuration running on a pool of
// n workers (n == 0 restores the default, GOMAXPROCS).
func (c Config) WithWorkers(n int) Config {
	c.Workers = n
	return c
}

// clientSideQuery reports whether queries execute on the client after a
// sync (the modified query rule of §3.2, Fig. 10b) rather than being
// packaged and executed by the handler (Fig. 10a).
func (c Config) clientSideQuery() bool { return c.DynElide || c.StaticElide }

// Configs lists the paper's five configurations in presentation order.
func Configs() []Config {
	return []Config{ConfigNone, ConfigDynamic, ConfigStatic, ConfigQoQ, ConfigAll}
}

// Stats is a snapshot of the runtime's instrumentation counters (the
// "SCOOP-specific instrumentation" the paper's §7 calls for).
//
// AsyncCalls, RemoteQueries, LocalQueries, SyncsPerformed and
// SyncsElided are counted per request, and Reservations, SessionsNew and
// SessionsReused per block, by the client that made them, and reach
// Stats at its next synchronization point: a SyncNow or packaged query
// that parks it (its own count included), the end of the block, or a
// reservation that failed. Once every block has ended they are exact;
// a snapshot taken while a client is mid-block lacks that client's
// counts since its last such point. Every other counter is added when
// its event happens.
type Stats struct {
	AsyncCalls     int64 // calls logged via Session.Call or CallAlways (a remote server's requests and every CallFuture/QueryAsync are CallAlways), counted at the client's next sync point or block end
	RemoteQueries  int64 // packaged queries executed on the handler, counted at the client's next sync point or block end
	LocalQueries   int64 // client-side query executions, counted at the client's next sync point or block end
	SyncsPerformed int64 // sync round-trips that reached the handler, counted at the client's next sync point or block end
	SyncsElided    int64 // syncs skipped by dynamic coalescing, counted at the client's next sync point or block end
	Reservations   int64 // single-handler separate blocks entered, counted at the client's next sync point or block end
	MultiResGroups int64 // multi-handler reservations: SeparateMany blocks, one per SeparateWhen its handler evaluates (one handler, QoQ), else one per SeparateWhen attempt
	GuardRetries   int64 // wait-condition attempts that ended without effect: a handler-evaluated SeparateWhen's first evaluation if false (re-evaluations in place are not attempts), every false evaluation of a client-evaluated one
	SessionsNew    int64 // private queues freshly allocated, counted at the client's next sync point or block end
	SessionsReused int64 // private queues taken from the client cache, counted at the client's next sync point or block end
	EndsProcessed  int64 // blocks ended by handlers: END markers, the wait markers of failed guards and guard requests whose first evaluation failed

	// Futures counters.
	FuturesCreated int64 // futures minted by CallFuture/QueryAsync, each also counted in AsyncCalls (none by a remote server)
	AwaitParks     int64 // always 0: a handler has no awaiting state; kept because bench/trace.go reads it

	// Handler state-machine counters.
	Schedules    int64 // handler activations: made runnable by a wake or a spent step budget, each followed by one Step
	HandlerParks int64 // handlers parked mid-session awaiting their client, a Step run inline that answered its client's sync and idled pinned included

	// Pool counters, from here down.
	WorkerSpawns int64 // compensation workers spawned for blocked ones
	WorkerParks  int64 // pool workers parked idle

	// Scheduler traffic counters (see sched.Executor).
	Steals         int64 // tasks stolen from another worker's next slot
	InjectorPushes int64 // wakes routed through the shared injector
	LocalPushes    int64 // wakes fast-pathed into a worker's next slot

	// TaskSteals counts the parallel skeletons' chunks (sched.ParallelFor
	// and friends, run on the pool) that a helper task ran rather than
	// the calling goroutine.
	TaskSteals int64
}

type statsCounters struct {
	asyncCalls     atomic.Int64
	remoteQueries  atomic.Int64
	localQueries   atomic.Int64
	syncsPerformed atomic.Int64
	syncsElided    atomic.Int64
	reservations   atomic.Int64
	multiResGroups atomic.Int64
	guardRetries   atomic.Int64
	sessionsNew    atomic.Int64
	sessionsReused atomic.Int64
	endsProcessed  atomic.Int64
	futuresCreated atomic.Int64
	schedules      atomic.Int64
	handlerParks   atomic.Int64
}

func (s *statsCounters) snapshot() Stats {
	return Stats{
		AsyncCalls:     s.asyncCalls.Load(),
		RemoteQueries:  s.remoteQueries.Load(),
		LocalQueries:   s.localQueries.Load(),
		SyncsPerformed: s.syncsPerformed.Load(),
		SyncsElided:    s.syncsElided.Load(),
		Reservations:   s.reservations.Load(),
		MultiResGroups: s.multiResGroups.Load(),
		GuardRetries:   s.guardRetries.Load(),
		SessionsNew:    s.sessionsNew.Load(),
		SessionsReused: s.sessionsReused.Load(),
		EndsProcessed:  s.endsProcessed.Load(),
		FuturesCreated: s.futuresCreated.Load(),
		Schedules:      s.schedules.Load(),
		HandlerParks:   s.handlerParks.Load(),
	}
}

// Runtime owns a set of handlers and the configuration they run under.
// Create one with New, spawn handlers with NewHandler, create a Client
// per application goroutine, and call Shutdown when all clients are
// done.
type Runtime struct {
	cfg   Config
	stats statsCounters

	// exec is the M:N worker pool that runs every handler.
	exec *sched.Executor

	mu       sync.Mutex
	handlers []*Handler
	nextID   int64
	down     bool

	// downC is closed at the end of Shutdown; Client.Await selects on
	// it so a wait that can no longer be satisfied errors out instead
	// of hanging.
	downC chan struct{}

	wg sync.WaitGroup
}

// New creates a runtime with the given configuration.
func New(cfg Config) *Runtime {
	n := cfg.Workers
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Runtime{
		cfg:   cfg,
		exec:  sched.NewExecutor(n),
		downC: make(chan struct{}),
	}
}

// Config returns the runtime's configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Stats returns a snapshot of the instrumentation counters. The
// client-counted ones (AsyncCalls, LocalQueries, SyncsElided,
// Reservations, SessionsNew, SessionsReused) include a block's counts
// once the block has ended (or its client has since parked in a sync or
// packaged query); see Stats.
func (rt *Runtime) Stats() Stats {
	st := rt.stats.snapshot()
	st.WorkerSpawns, st.WorkerParks = rt.exec.Counters()
	st.Steals, st.InjectorPushes, st.LocalPushes = rt.exec.StealCounters()
	st.TaskSteals = rt.exec.TaskSteals()
	return st
}

// Executor exposes the runtime's worker pool so clients can run
// the parallel skeletons (sched.ParallelFor and friends) on the same
// workers that serve the handlers: their helper tasks queue beside the
// handlers. Never nil.
func (rt *Runtime) Executor() *sched.Executor {
	return rt.exec
}

// Handlers returns the handlers created so far, in creation order.
func (rt *Runtime) Handlers() []*Handler {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*Handler, len(rt.handlers))
	copy(out, rt.handlers)
	return out
}

// NewClient returns a client context for the calling goroutine. A
// Client is not safe for concurrent use; create one per goroutine.
func (rt *Runtime) NewClient() *Client {
	c := &Client{rt: rt}
	c.parker.Init()
	return c
}

// Shutdown stops all handlers and waits for them to exit, then stops
// the worker pool. All separate blocks must have completed; entering a
// block after Shutdown panics with ErrShutdown.
func (rt *Runtime) Shutdown() {
	rt.mu.Lock()
	if rt.down {
		rt.mu.Unlock()
		return
	}
	rt.down = true
	hs := make([]*Handler, len(rt.handlers))
	copy(hs, rt.handlers)
	rt.mu.Unlock()
	for _, h := range hs {
		// The queue wakes nobody: wake h so it steps once more to
		// observe the close and retire.
		h.qoq.Close()
		h.wake()
	}
	rt.wg.Wait()
	rt.exec.Stop()
	close(rt.downC)
}
