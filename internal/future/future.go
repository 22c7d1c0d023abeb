// Package future provides the completion cell underlying the runtime's
// asynchronous queries (Session.CallFuture in internal/core and the
// pipelined remote protocol in internal/remote).
//
// A Future is a write-once cell: it starts incomplete and is resolved
// exactly once, either with a value (Complete) or an error (Fail);
// later resolutions are ignored, which makes racing completers — a
// handler finishing a query versus a runtime failing stragglers at
// shutdown — safe by construction. Consumers observe the result through
// whichever shape fits their control flow: a blocking Get, a
// non-blocking TryGet, a Done channel for select loops, or an
// OnComplete callback for continuation-passing.
//
// A future costs one allocation, the cell itself, until somebody waits
// on it: the Done channel is made on demand, by Done or by a Get on a
// pending future, and the first OnComplete callback is held in the
// cell. A future resolved through callbacks alone, or read with TryGet
// after resolution, never makes a channel.
//
// The package is deliberately dependency-free: core and remote both
// build on it, and it knows about neither.
package future

import (
	"sync"
	"sync/atomic"
)

// Future is a write-once completion cell. The zero value is not usable;
// use New. All methods are safe for concurrent use by any number of
// goroutines.
type Future struct {
	mu sync.Mutex
	// resolved is set, under mu, once val and err hold the result; read
	// without mu it answers TryGet, Get's fast path and first-wins.
	resolved atomic.Bool
	done     chan struct{} // made on demand (Done, or Get while pending); closed on resolution
	val      any
	err      error
	// cb is the first pending callback and more the later ones, in
	// registration order; both nil once run. A lone callback, the common
	// case, costs no slice.
	cb   func(v any, err error)
	more *[]func(v any, err error)
}

// closedDone is what Done returns once the future has resolved without
// anybody having asked for its channel before.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// New returns an incomplete future.
func New() *Future {
	return &Future{}
}

// Complete resolves the future with v. It reports whether this call won
// the resolution; a future already resolved is left untouched.
func (f *Future) Complete(v any) bool { return f.resolve(v, nil) }

// Fail resolves the future with err. It reports whether this call won
// the resolution.
func (f *Future) Fail(err error) bool { return f.resolve(nil, err) }

// resolve installs the result (first caller wins), closes Done if
// anybody made it, and runs the callbacks registered so far, in
// registration order, on the calling goroutine.
func (f *Future) resolve(v any, err error) bool {
	if f.resolved.Load() {
		return false
	}
	f.mu.Lock()
	if f.resolved.Load() {
		f.mu.Unlock()
		return false
	}
	f.val, f.err = v, err
	f.resolved.Store(true)
	cb, more := f.cb, f.more
	f.cb, f.more = nil, nil
	if f.done != nil {
		close(f.done)
	}
	f.mu.Unlock()
	if cb != nil {
		cb(v, err)
	}
	if more != nil {
		for _, fn := range *more {
			fn(v, err)
		}
	}
	return true
}

// Done returns a channel closed when the future resolves. It is the
// select-friendly view of completion. The channel is made by the first
// call on a pending future; called after resolution, Done returns an
// already-closed channel shared by every resolved future.
func (f *Future) Done() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done == nil {
		if f.resolved.Load() {
			return closedDone
		}
		f.done = make(chan struct{})
	}
	return f.done
}

// TryGet reports the result without blocking. ok is false while the
// future is incomplete.
func (f *Future) TryGet() (v any, err error, ok bool) {
	if !f.resolved.Load() {
		return nil, nil, false
	}
	return f.val, f.err, true
}

// Get blocks until the future resolves and returns its result. Only a
// Get that finds the future pending makes (through Done) the channel it
// waits on.
func (f *Future) Get() (any, error) {
	if !f.resolved.Load() {
		<-f.Done()
	}
	return f.val, f.err
}

// OnComplete registers fn to run when the future resolves. If the
// future is already resolved, fn runs immediately on the calling
// goroutine; otherwise it runs on the resolving goroutine, after the
// Done channel is closed, in registration order. fn must not block:
// resolvers (handlers, the executor's wake path) call it inline.
func (f *Future) OnComplete(fn func(v any, err error)) {
	f.mu.Lock()
	if !f.resolved.Load() {
		switch {
		case f.cb == nil:
			f.cb = fn
		case f.more == nil:
			f.more = &[]func(v any, err error){fn}
		default:
			*f.more = append(*f.more, fn)
		}
		f.mu.Unlock()
		return
	}
	f.mu.Unlock()
	fn(f.val, f.err)
}
