// Package stm is a software transactional memory in the TL2 style: a
// global version clock, per-variable versioned values, optimistic
// reads validated at commit, write locks taken in a canonical order,
// and a blocking Retry that waits until some variable in the
// transaction's read set changes.
//
// Frozen: a reproduction-only comparison paradigm for the paper's language
// tables (internal/harness); it gets no new features and is excluded from
// the benchmark's ladder claims.
//
// It is the substrate standing in for Haskell's STM in the paper's
// language comparison: every transactional operation pays the
// bookkeeping of read/write-set maintenance and commit-time
// validation, which is precisely the cost profile the paper attributes
// to Haskell on the coordination benchmarks ("an extra level of
// bookkeeping on every operation").
//
// Frozen: this package exists only for the language columns of the
// paper's Tables 3–5 and Figs. 18–20 (internal/harness). It gets no new
// features and is excluded from the benchmark's ladder claims.
package stm

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// clock is the global version clock shared by all TVars.
var clock atomic.Uint64

var tvarIDs atomic.Uint64

// versioned pairs a value with the commit version that wrote it, so
// readers get a consistent (value, version) snapshot from one atomic
// load.
type versioned struct {
	val     any
	version uint64
}

// TVar is a transactional variable. Create with NewTVar; access only
// through Read/Write inside Atomically.
type TVar struct {
	id uint64
	mu sync.Mutex // commit lock
	// locked is the reader-visible half of the commit lock (TL2's
	// versioned-lock bit): set by the committer holding mu from before
	// it draws its write version until its store to cur has landed.
	locked  atomic.Bool
	cur     atomic.Pointer[versioned]
	wmu     sync.Mutex
	waiters []chan struct{}
}

// NewTVar returns a TVar holding initial.
func NewTVar(initial any) *TVar {
	tv := &TVar{id: tvarIDs.Add(1)}
	tv.cur.Store(&versioned{val: initial, version: clock.Load()})
	return tv
}

func (tv *TVar) addWaiter(ch chan struct{}) {
	tv.wmu.Lock()
	tv.waiters = append(tv.waiters, ch)
	tv.wmu.Unlock()
}

func (tv *TVar) removeWaiter(ch chan struct{}) {
	tv.wmu.Lock()
	for i, w := range tv.waiters {
		if w == ch {
			tv.waiters[i] = tv.waiters[len(tv.waiters)-1]
			tv.waiters = tv.waiters[:len(tv.waiters)-1]
			break
		}
	}
	tv.wmu.Unlock()
}

func (tv *TVar) notifyWaiters() {
	tv.wmu.Lock()
	for _, w := range tv.waiters {
		select {
		case w <- struct{}{}:
		default:
		}
	}
	tv.wmu.Unlock()
}

// Txn is an in-flight transaction. It is only valid inside the function
// passed to Atomically and must not escape it or be shared between
// goroutines.
type Txn struct {
	rv     uint64 // read version: snapshot of the clock at txn start
	reads  map[*TVar]uint64
	writes map[*TVar]any
}

// control-flow sentinels raised by Read/Retry and caught by Atomically.
type conflictSignal struct{}
type retrySignal struct{}

// Read returns the value of tv as of this transaction.
func (tx *Txn) Read(tv *TVar) any {
	if v, ok := tx.writes[tv]; ok {
		return v
	}
	// The lock is sampled before the value. A committer sets it before
	// bumping the clock and clears it after storing, so a transaction
	// whose rv already includes that commit either sees the lock here or
	// sees the new value below — never the old value of one variable
	// next to the new value of another. One sample suffices because
	// value and version sit behind a single pointer.
	locked := tv.locked.Load()
	p := tv.cur.Load()
	if locked || p.version > tx.rv {
		// Mid-commit, or changed after we started: our snapshot is
		// stale. Abort and re-run with a fresh read version.
		panic(conflictSignal{})
	}
	tx.reads[tv] = p.version
	return p.val
}

// Write records a new value for tv, visible to this transaction's
// subsequent reads and published atomically at commit.
func (tx *Txn) Write(tv *TVar, v any) {
	tx.writes[tv] = v
}

// Retry aborts the transaction and blocks it until some variable it has
// read changes, then re-runs it (Haskell's retry).
func (tx *Txn) Retry() {
	panic(retrySignal{})
}

// ReadInt is a convenience for integer TVars.
func (tx *Txn) ReadInt(tv *TVar) int { return tx.Read(tv).(int) }

// Atomically runs f as a transaction: all of its reads see a consistent
// snapshot and its writes commit atomically, or f re-runs. The value
// returned by f is returned once a commit succeeds.
func Atomically(f func(tx *Txn) any) any {
	for {
		tx := &Txn{rv: clock.Load(), reads: map[*TVar]uint64{}, writes: map[*TVar]any{}}
		v, outcome := attempt(tx, f)
		switch outcome {
		case okOutcome:
			if tx.commit() {
				return v
			}
		case retryOutcome:
			tx.waitForChange()
		case conflictOutcome:
			// Re-run with a fresh snapshot; the yield lets a committer
			// that was descheduled holding a lock finish first.
			runtime.Gosched()
		}
	}
}

// Void runs a transaction that yields no value.
func Void(f func(tx *Txn)) {
	Atomically(func(tx *Txn) any { f(tx); return nil })
}

type outcome uint8

const (
	okOutcome outcome = iota
	retryOutcome
	conflictOutcome
)

func attempt(tx *Txn, f func(tx *Txn) any) (v any, oc outcome) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case conflictSignal:
				oc = conflictOutcome
			case retrySignal:
				oc = retryOutcome
			default:
				panic(r) // user panic: propagate
			}
		}
	}()
	return f(tx), okOutcome
}

// commit validates the read set and publishes the write set, locking
// written variables in id order (deadlock-free) and bumping the global
// clock.
func (tx *Txn) commit() bool {
	if len(tx.writes) == 0 {
		// Read-only transactions validated incrementally in Read: if
		// every read version was <= rv, the whole read set was a
		// consistent snapshot at rv.
		return true
	}
	locked := make([]*TVar, 0, len(tx.writes))
	for tv := range tx.writes {
		locked = append(locked, tv)
	}
	sort.Slice(locked, func(i, j int) bool { return locked[i].id < locked[j].id })
	for _, tv := range locked {
		tv.mu.Lock()
		tv.locked.Store(true)
	}
	unlock := func() {
		for i := len(locked) - 1; i >= 0; i-- {
			locked[i].locked.Store(false)
			locked[i].mu.Unlock()
		}
	}
	// Validate: every variable we read must still be at the version we
	// saw and must not be mid-commit by another transaction (its new
	// version may be drawn but not yet stored; two committers that read
	// each other's write set both have their locks up by now, so at
	// least one sees the other's).
	for tv, ver := range tx.reads {
		_, mine := tx.writes[tv]
		if (!mine && tv.locked.Load()) || tv.cur.Load().version != ver {
			unlock()
			return false
		}
	}
	wv := clock.Add(1)
	for _, tv := range locked {
		tv.cur.Store(&versioned{val: tx.writes[tv], version: wv})
	}
	unlock()
	for _, tv := range locked {
		tv.notifyWaiters()
	}
	return true
}

// waitForChange blocks until any TVar in the read set is written by a
// committed transaction, implementing Retry.
func (tx *Txn) waitForChange() {
	if len(tx.reads) == 0 {
		// A retry with an empty read set would sleep forever; re-run
		// immediately (degenerate, same as GHC's busy behaviour).
		return
	}
	ch := make(chan struct{}, 1)
	vars := make([]*TVar, 0, len(tx.reads))
	for tv := range tx.reads {
		vars = append(vars, tv)
		tv.addWaiter(ch)
	}
	// Re-validate after registering: a change between our read and the
	// registration must not be missed.
	changed := false
	for tv, ver := range tx.reads {
		if tv.cur.Load().version != ver {
			changed = true
			break
		}
	}
	if !changed {
		<-ch
	}
	for _, tv := range vars {
		tv.removeWaiter(ch)
	}
}
