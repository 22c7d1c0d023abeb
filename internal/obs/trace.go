package obs

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Kind identifies what an event records. The constants span the three
// instrumented layers; kindNames/kindDur must be kept in step.
type Kind uint8

const (
	KindNone Kind = iota

	// internal/sched
	KindDispatch   // span: task ready→run queue latency (arg = ns)
	KindSteal      // instant: a task migrated to the emitting worker
	KindWorkerPark // span: worker idle on the pool condvar (arg = ns)
	KindTaskSpawn  // instant: TaskGroup.Spawn
	KindTaskJoin   // span: TaskGroup.Wait duration (arg = ns)

	// internal/core
	KindHandlerReady // instant: handler scheduled (id = handler)
	KindHandlerRun   // span: one handler Step (arg = ns, id = handler)
	KindCall         // span: async call log→execution (arg = ns, id = handler)
	KindQuery        // span: synchronous query end-to-end (arg = ns, id = handler)
	KindSync         // span: sync round-trip end-to-end (arg = ns, id = handler)
	KindSyncElide    // instant: a sync skipped by dynamic coalescing (id = handler)
	KindGuardWait    // span: client parked in SeparateWhen until its block is started or woken (arg = ns, id = handler)

	// internal/remote
	KindFlush       // instant: one conn.Write (arg = batch bytes)
	KindWriterStall // span: producer parked at the byte budget (arg = ns)
	KindCreditWait  // span: admission parked at zero credits (arg = ns, id = channel)
	KindRoundTrip   // span: pipelined request→reply (arg = ns, id = channel)

	// internal/chaos
	KindChaosFault // instant: injected fault (arg = faultKind code, id = conn)
	KindChaosDelay // span: injected latency (arg = ns, id = conn)

	kindMax
)

// kindNames are the Chrome trace event names; index by Kind.
var kindNames = [kindMax]string{
	KindNone:         "none",
	KindDispatch:     "sched.dispatch",
	KindSteal:        "sched.steal",
	KindWorkerPark:   "sched.worker_park",
	KindTaskSpawn:    "sched.task_spawn",
	KindTaskJoin:     "sched.task_join",
	KindHandlerReady: "core.handler_ready",
	KindHandlerRun:   "core.handler_run",
	KindCall:         "core.call",
	KindQuery:        "core.query",
	KindSync:         "core.sync",
	KindSyncElide:    "core.sync_elide",
	KindGuardWait:    "core.guard_wait",
	KindFlush:        "remote.flush",
	KindWriterStall:  "remote.writer_stall",
	KindCreditWait:   "remote.credit_wait",
	KindRoundTrip:    "remote.roundtrip",
	KindChaosFault:   "chaos.fault",
	KindChaosDelay:   "chaos.delay",
}

// kindDur marks kinds whose arg is a duration in nanoseconds; they
// export as complete ("X") trace events ending at the record's
// timestamp. The rest export as instants.
var kindDur = [kindMax]bool{
	KindDispatch:    true,
	KindWorkerPark:  true,
	KindTaskJoin:    true,
	KindHandlerRun:  true,
	KindCall:        true,
	KindQuery:       true,
	KindSync:        true,
	KindGuardWait:   true,
	KindWriterStall: true,
	KindCreditWait:  true,
	KindRoundTrip:   true,
	KindChaosDelay:  true,
}

// String returns the event name used in exported traces.
func (k Kind) String() string {
	if k < kindMax {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one fixed-width trace record. TS is obs.Now at emission;
// for duration kinds (kindDur) Arg is the span's length in nanoseconds
// and TS its end.
type Event struct {
	TS   int64
	Arg  int64
	ID   uint64
	Kind Kind
}

// slot is one ring entry, stored as independent atomics: a snapshot
// racing a wrapped writer may still assemble a record from two epochs
// (torn — the consumers tolerate it), but every word is individually
// atomic, because the Go memory model has no benign plain-word races.
// On the architectures that matter these stores compile to plain MOVs,
// so emission stays a claim plus four stores.
type slot struct {
	ts   atomic.Int64
	arg  atomic.Int64
	id   atomic.Uint64
	kind atomic.Uint32
}

func (s *slot) load() Event {
	return Event{
		TS:   s.ts.Load(),
		Arg:  s.arg.Load(),
		ID:   s.id.Load(),
		Kind: Kind(s.kind.Load()),
	}
}

// ringSize is the per-ring capacity in events (a power of two). At 32
// bytes per record a full ring is 512 KiB — allocated lazily on the
// ring's first Emit, so an untraced process pays nothing.
const ringSize = 1 << 14

// Ring is one event ring buffer. Emission is lock-free: a producer
// claims a slot with an atomic fetch-add and writes the record in
// place, overwriting the oldest once the ring wraps. Each scheduler
// worker owns a ring (single producer, the common case); the shared
// rings behind Emit take the same path with multiple producers — the
// claim arbitrates slots, and a snapshot racing a wrapped writer may
// read a torn record (the slot's words are individually atomic),
// which the exporter tolerates: traces are best-effort diagnostics,
// not ground truth.
type Ring struct {
	name string
	pos  atomic.Uint64
	buf  atomic.Pointer[[]slot]
	mu   sync.Mutex // guards lazy buf allocation only
}

// Emit appends one record. Call only while Enabled; the caller's gate
// is the disabled-path branch, not this method.
func (r *Ring) Emit(kind Kind, id uint64, arg int64) {
	buf := r.buf.Load()
	if buf == nil {
		buf = r.allocBuf()
	}
	i := r.pos.Add(1) - 1
	s := &(*buf)[i&(ringSize-1)]
	s.ts.Store(Now())
	s.arg.Store(arg)
	s.id.Store(id)
	s.kind.Store(uint32(kind))
}

func (r *Ring) allocBuf() *[]slot {
	r.mu.Lock()
	defer r.mu.Unlock()
	if buf := r.buf.Load(); buf != nil {
		return buf
	}
	buf := make([]slot, ringSize)
	r.buf.Store(&buf)
	return &buf
}

// snapshot returns the ring's records oldest-first. Records being
// overwritten concurrently may tear; KindNone and out-of-range kinds
// are filtered by the consumers.
func (r *Ring) snapshot() []Event {
	buf := r.buf.Load()
	if buf == nil {
		return nil
	}
	n := r.pos.Load()
	if n > ringSize {
		out := make([]Event, ringSize)
		start := n & (ringSize - 1)
		for i := range out {
			out[i] = (*buf)[(start+uint64(i))&(ringSize-1)].load()
		}
		return out
	}
	out := make([]Event, n)
	for i := range out {
		out[i] = (*buf)[i].load()
	}
	return out
}

// reset drops the ring's contents and releases its buffer.
func (r *Ring) reset() {
	r.mu.Lock()
	r.buf.Store(nil)
	r.pos.Store(0)
	r.mu.Unlock()
}

// tracer is the process-global ring registry: every ring ever handed
// out, in creation order, so the exporter can walk them all.
var tracer struct {
	mu    sync.Mutex
	rings []*Ring
}

// NewRing registers and returns a ring under the given diagnostic name
// (it becomes the Chrome trace thread name).
func NewRing(name string) *Ring {
	r := &Ring{name: name}
	tracer.mu.Lock()
	tracer.rings = append(tracer.rings, r)
	tracer.mu.Unlock()
	return r
}

// workerRingPoolSize bounds the per-worker ring pool. Worker ids wrap
// onto it, so a long-lived process that churns compensation workers
// reuses rings instead of growing the registry without bound; two
// workers sharing a ring is safe (the slot claim is atomic).
const workerRingPoolSize = 64

var workerRings struct {
	mu    sync.Mutex
	rings [workerRingPoolSize]*Ring
}

// WorkerRing returns the pooled ring for scheduler worker id. Rings are
// created on first use and shared by all executors in the process —
// worker ids wrap onto a fixed pool, trading perfect attribution for a
// bounded registry.
func WorkerRing(id int) *Ring {
	i := id % workerRingPoolSize
	if i < 0 {
		i = -i
	}
	workerRings.mu.Lock()
	r := workerRings.rings[i]
	if r == nil {
		r = NewRing(fmt.Sprintf("worker%d", i))
		workerRings.rings[i] = r
	}
	workerRings.mu.Unlock()
	return r
}

// sharedRings serve emitters with no worker context: clients, the
// remote reader and writer goroutines, future callbacks. Stack-address
// sharding keeps concurrent emitters off each other's cache lines.
var sharedRings [numShards]*Ring

func init() {
	for i := range sharedRings {
		sharedRings[i] = NewRing(fmt.Sprintf("shared%d", i))
	}
}

// Emit records one event on a shared ring. For code with a worker in
// hand, emitting on the worker's own ring is cheaper and attributes
// the event; this is the context-free fallback.
func Emit(kind Kind, id uint64, arg int64) {
	sharedRings[stackShard()].Emit(kind, id, arg)
}

// ResetTrace drops every ring's contents (buffers are released and
// reallocated on next use). Positions restart at zero; concurrent
// emitters may land a stale record in a fresh buffer, which is
// harmless for a diagnostics stream.
func ResetTrace() {
	tracer.mu.Lock()
	rings := append([]*Ring(nil), tracer.rings...)
	tracer.mu.Unlock()
	for _, r := range rings {
		r.reset()
	}
}

// EventCount returns the total number of events currently held across
// all rings (capped at each ring's capacity).
func EventCount() int64 {
	tracer.mu.Lock()
	rings := append([]*Ring(nil), tracer.rings...)
	tracer.mu.Unlock()
	var n int64
	for _, r := range rings {
		if p := r.pos.Load(); p > ringSize {
			n += ringSize
		} else {
			n += int64(p)
		}
	}
	return n
}

// Emitted returns the total number of events ever emitted across all
// rings since the last ResetTrace — a raw, uncapped count, so a delta
// of zero proves nothing recorded even when rings have wrapped. The
// disabled-path assertions use it.
func Emitted() int64 {
	tracer.mu.Lock()
	rings := append([]*Ring(nil), tracer.rings...)
	tracer.mu.Unlock()
	var n int64
	for _, r := range rings {
		n += int64(r.pos.Load())
	}
	return n
}

// KindCounts returns how many events of each kind the rings currently
// hold, keyed by trace event name. Torn or zero records are skipped.
func KindCounts() map[string]int64 {
	tracer.mu.Lock()
	rings := append([]*Ring(nil), tracer.rings...)
	tracer.mu.Unlock()
	out := map[string]int64{}
	for _, r := range rings {
		for _, ev := range r.snapshot() {
			if ev.Kind > KindNone && ev.Kind < kindMax {
				out[kindNames[ev.Kind]]++
			}
		}
	}
	return out
}

// WriteChromeTrace exports every ring as Chrome trace_event JSON (the
// format Perfetto and chrome://tracing load). Each ring becomes one
// thread; duration kinds export as complete ("X") events spanning
// [TS-Arg, TS], the rest as instants with the raw arg attached.
// Timestamps are microseconds with nanosecond precision, relative to
// process start. Export with recording disabled for a consistent
// snapshot; a live export is safe but may contain torn records (which
// are dropped when their kind is out of range).
func WriteChromeTrace(w io.Writer) error {
	tracer.mu.Lock()
	rings := append([]*Ring(nil), tracer.rings...)
	tracer.mu.Unlock()

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	for tid, r := range rings {
		evs := r.snapshot()
		if len(evs) == 0 {
			continue
		}
		emit(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tid, r.name)
		for _, ev := range evs {
			if ev.Kind <= KindNone || ev.Kind >= kindMax {
				continue // unwritten slot or torn record
			}
			name := kindNames[ev.Kind]
			if kindDur[ev.Kind] && ev.Arg >= 0 {
				start := float64(ev.TS-ev.Arg) / 1e3
				emit(`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d}}`,
					name, tid, start, float64(ev.Arg)/1e3, ev.ID)
			} else {
				emit(`{"name":%q,"ph":"i","s":"t","pid":1,"tid":%d,"ts":%.3f,"args":{"id":%d,"arg":%d}}`,
					name, tid, float64(ev.TS)/1e3, ev.ID, ev.Arg)
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
