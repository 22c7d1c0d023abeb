// Package actor is a small Erlang-style actor runtime: lightweight
// processes with unbounded mailboxes, deep-copied messages (no shared
// memory between actors), selective receive, and a gen_server-style
// call/reply convention.
//
// Frozen: a reproduction-only comparison paradigm for the paper's language
// tables (internal/harness); it gets no new features and is excluded from
// the benchmark's ladder claims.
//
// It is the substrate standing in for Erlang in the paper's language
// comparison: its defining cost is that every message is copied in its
// entirety between actor heaps, which is exactly the communication
// burden the paper measures for Erlang on the data-parallel Cowichan
// problems.
package actor

import (
	"sync"
	"sync/atomic"

	"scoopqs/internal/queue"
	"scoopqs/internal/sched"
)

var ids atomic.Uint64

// Ref identifies an actor, like an Erlang pid. Refs are sent inside
// messages without being copied.
type Ref struct {
	id   uint64
	mbox *queue.MPSC[any]
	// parker is what the actor waits on for mail: the mailbox wakes
	// nobody, so every Send unparks it after the enqueue.
	parker *sched.Parker
	done   chan struct{}
}

// ID returns the actor's unique id.
func (r *Ref) ID() uint64 { return r.id }

// Send delivers a deep copy of msg to the actor's mailbox. It never
// blocks. Sending to a terminated actor silently drops the message,
// as in Erlang.
func (r *Ref) Send(msg any) {
	select {
	case <-r.done:
		return
	default:
	}
	r.mbox.Enqueue(DeepCopy(msg))
	r.parker.Unpark()
}

// Join blocks until the actor's body function returns.
func (r *Ref) Join() { <-r.done }

// Ctx is an actor's view of itself, passed to its body function. It is
// only valid on the actor's own goroutine.
type Ctx struct {
	self  *Ref
	saved []any // messages skipped by selective receive, in order
}

// Self returns the actor's own Ref.
func (c *Ctx) Self() *Ref { return c.self }

// Receive returns the next message in mailbox order, blocking if
// necessary. Messages previously skipped by ReceiveMatch come first.
func (c *Ctx) Receive() any {
	if len(c.saved) > 0 {
		m := c.saved[0]
		c.saved = c.saved[1:]
		return m
	}
	return c.next()
}

// next takes the next message from the mailbox, waiting as sched.Idle
// while it is empty: the busy polls, then Park until a Send.
func (c *Ctx) next() any {
	r := c.self
	for i := 0; ; i++ {
		if m, ok := r.mbox.TryDequeue(); ok {
			return m
		}
		if !sched.Idle.Poll(i) {
			r.parker.Park()
			i = 0
		}
	}
}

// ReceiveMatch returns the first message satisfying pred, blocking
// until one arrives. Non-matching messages are saved and delivered by
// later receives in their original order — Erlang's selective receive.
func (c *Ctx) ReceiveMatch(pred func(any) bool) any {
	for i, m := range c.saved {
		if pred(m) {
			c.saved = append(c.saved[:i], c.saved[i+1:]...)
			return m
		}
	}
	for {
		m := c.next()
		if pred(m) {
			return m
		}
		c.saved = append(c.saved, m)
	}
}

// Request is the envelope of a synchronous call, delivered to the
// server actor. Reply to it with Ctx.Reply.
type Request struct {
	ID      uint64
	From    *Ref
	Payload any
}

type response struct {
	ID    uint64
	Value any
}

// Call sends payload to the server actor and blocks until its Reply,
// like gen_server:call. The reply is matched by id, so interleaved
// messages from other actors are not confused with it.
func (c *Ctx) Call(to *Ref, payload any) any {
	id := ids.Add(1)
	to.Send(Request{ID: id, From: c.self, Payload: payload})
	m := c.ReceiveMatch(func(m any) bool {
		r, ok := m.(response)
		return ok && r.ID == id
	})
	return m.(response).Value
}

// Reply answers a Request received by a server actor.
func (c *Ctx) Reply(req Request, v any) {
	req.From.Send(response{ID: req.ID, Value: v})
}

// Spawn starts a new actor running body and returns its Ref. The actor
// terminates when body returns.
func Spawn(body func(c *Ctx)) *Ref {
	r := &Ref{
		id:     ids.Add(1),
		mbox:   queue.NewMPSC[any](0),
		parker: sched.NewParker(),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(r.done)
		body(&Ctx{self: r})
	}()
	return r
}

// SpawnGroup starts n actors and returns their refs plus a wait
// function that joins all of them.
func SpawnGroup(n int, body func(i int, c *Ctx)) ([]*Ref, func()) {
	refs := make([]*Ref, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		refs[i] = Spawn(func(c *Ctx) {
			defer wg.Done()
			body(i, c)
		})
	}
	return refs, wg.Wait
}
