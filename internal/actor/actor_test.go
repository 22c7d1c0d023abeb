package actor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSendReceive(t *testing.T) {
	got := make(chan any, 1)
	a := Spawn(func(c *Ctx) { got <- c.Receive() })
	a.Send("hello")
	select {
	case v := <-got:
		if v != "hello" {
			t.Fatalf("got %v", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message not delivered")
	}
	a.Join()
}

func TestPerSenderFIFO(t *testing.T) {
	type msg struct {
		Sender, Seq int
	}
	const senders, per = 4, 2000
	recvd := make(chan msg, senders*per)
	sink := Spawn(func(c *Ctx) {
		for i := 0; i < senders*per; i++ {
			recvd <- c.Receive().(msg)
		}
	})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sink.Send(msg{Sender: s, Seq: i})
			}
		}(s)
	}
	wg.Wait()
	sink.Join()
	close(recvd)
	next := make([]int, senders)
	for m := range recvd {
		if m.Seq != next[m.Sender] {
			t.Fatalf("sender %d: got seq %d, want %d", m.Sender, m.Seq, next[m.Sender])
		}
		next[m.Sender]++
	}
}

// An actor waiting for mail parks after a handful of busy polls
// (sched.Idle), so when the next message is only sent once the actor has
// taken the last, every hand-off finds it parked or between its last
// empty poll and its Park — the window a Send's Unpark must not fall
// into. K producers race to make each hand-off so the Send, and its
// Unpark, come from changing goroutines. A lost wake-up leaves everyone
// waiting.
func TestMailboxParkWakeStorm(t *testing.T) {
	const producers, handoffs = 4, 100000
	var produced, consumed atomic.Int64 // equal: the actor has drained
	a := Spawn(func(c *Ctx) {
		for i := int64(0); i < handoffs; i++ {
			if v := c.Receive(); v != i {
				t.Errorf("hand-off %d: Receive = %v", i, v)
			}
			consumed.Store(i + 1)
		}
	})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := consumed.Load()
				if n == handoffs {
					return
				}
				if produced.CompareAndSwap(n, n+1) {
					a.Send(n)
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); a.Join(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("lost wake-up: %d sent, %d received of %d", produced.Load(), consumed.Load(), handoffs)
	}
}

// Deep-copy isolation: mutating a received message must not affect the
// sender's copy, and vice versa.
func TestMessageIsolation(t *testing.T) {
	type payload struct {
		Data []int
		Tags map[string]int
	}
	original := payload{Data: []int{1, 2, 3}, Tags: map[string]int{"a": 1}}
	done := make(chan struct{})
	a := Spawn(func(c *Ctx) {
		m := c.Receive().(payload)
		m.Data[0] = 999
		m.Tags["a"] = 999
		close(done)
	})
	a.Send(original)
	<-done
	if original.Data[0] != 1 || original.Tags["a"] != 1 {
		t.Fatal("receiver mutation leaked into sender's message")
	}
}

func TestSelectiveReceivePreservesOrder(t *testing.T) {
	out := make(chan []any, 1)
	a := Spawn(func(c *Ctx) {
		// Wait for the token first even though other messages arrive
		// before it, then drain the rest in order.
		tok := c.ReceiveMatch(func(m any) bool { _, ok := m.(string); return ok })
		rest := []any{tok}
		for i := 0; i < 3; i++ {
			rest = append(rest, c.Receive())
		}
		out <- rest
	})
	a.Send(1)
	a.Send(2)
	a.Send("token")
	a.Send(3)
	got := <-out
	if got[0] != "token" || got[1] != 1 || got[2] != 2 || got[3] != 3 {
		t.Fatalf("selective receive order wrong: %v", got)
	}
	a.Join()
}

func TestCallReply(t *testing.T) {
	server := Spawn(func(c *Ctx) {
		for i := 0; i < 3; i++ {
			req := c.Receive().(Request)
			c.Reply(req, req.Payload.(int)*2)
		}
	})
	results := make(chan int, 3)
	_, wait := SpawnGroup(3, func(i int, c *Ctx) {
		results <- c.Call(server, i+1).(int)
	})
	wait()
	server.Join()
	close(results)
	sum := 0
	for v := range results {
		sum += v
	}
	if sum != 2+4+6 {
		t.Fatalf("sum = %d, want 12", sum)
	}
}

func TestCallsFromManyClientsMatchIDs(t *testing.T) {
	server := Spawn(func(c *Ctx) {
		for {
			m := c.Receive()
			req, ok := m.(Request)
			if !ok {
				return // stop sentinel
			}
			c.Reply(req, req.Payload)
		}
	})
	const clients, calls = 8, 200
	errs := make(chan int, clients)
	_, wait := SpawnGroup(clients, func(i int, c *Ctx) {
		bad := 0
		for k := 0; k < calls; k++ {
			want := i*1000 + k
			if got := c.Call(server, want).(int); got != want {
				bad++
			}
		}
		errs <- bad
	})
	wait()
	server.Send(struct{}{}) // not a Request: stops the server — but it
	// must be a copyable type; empty struct is fine.
	server.Join()
	close(errs)
	for bad := range errs {
		if bad != 0 {
			t.Fatalf("%d mismatched call replies", bad)
		}
	}
}

func TestSendToDeadActorDropped(t *testing.T) {
	a := Spawn(func(c *Ctx) {})
	a.Join()
	a.Send("into the void") // must not panic or block
}

func TestRefsSharedNotCopied(t *testing.T) {
	type envelope struct{ To *Ref }
	b := Spawn(func(c *Ctx) { c.Receive() })
	got := make(chan *Ref, 1)
	a := Spawn(func(c *Ctx) {
		env := c.Receive().(envelope)
		got <- env.To
	})
	a.Send(envelope{To: b})
	if r := <-got; r != b {
		t.Fatal("Ref was copied; pids must be shared identities")
	}
	b.Send(0)
	a.Join()
	b.Join()
}

func TestDeepCopyKinds(t *testing.T) {
	type inner struct{ X int }
	type outer struct {
		P   *inner
		S   []string
		M   map[int][]int
		A   [2]int
		Any any
	}
	in := outer{
		P:   &inner{X: 5},
		S:   []string{"a", "b"},
		M:   map[int][]int{1: {2, 3}},
		A:   [2]int{7, 8},
		Any: []int{9},
	}
	out := DeepCopy(in).(outer)
	if out.P == in.P {
		t.Error("pointer not copied")
	}
	if out.P.X != 5 {
		t.Error("pointee value lost")
	}
	out.S[0] = "zz"
	out.M[1][0] = 99
	out.Any.([]int)[0] = 99
	if in.S[0] != "a" || in.M[1][0] != 2 || in.Any.([]int)[0] != 9 {
		t.Error("copy shares storage with original")
	}
}

func TestDeepCopyNils(t *testing.T) {
	if DeepCopy(nil) != nil {
		t.Error("nil should copy to nil")
	}
	type box struct {
		P *int
		S []int
		M map[int]int
	}
	out := DeepCopy(box{}).(box)
	if out.P != nil || out.S != nil || out.M != nil {
		t.Error("nil fields should stay nil")
	}
}

func TestDeepCopyRejectsUnexported(t *testing.T) {
	type sneaky struct {
		x int //nolint:unused // presence is the point
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unexported field")
		}
	}()
	DeepCopy(sneaky{})
}

func TestDeepCopyRejectsChannels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for channel message")
		}
	}()
	DeepCopy(make(chan int))
}

// Property: DeepCopy of int-slice trees preserves structure and value.
func TestDeepCopyQuick(t *testing.T) {
	f := func(xs []int, m map[string]int) bool {
		in := struct {
			Xs []int
			M  map[string]int
		}{xs, m}
		out := DeepCopy(in).(struct {
			Xs []int
			M  map[string]int
		})
		if len(out.Xs) != len(xs) || len(out.M) != len(m) {
			return false
		}
		for i := range xs {
			if out.Xs[i] != xs[i] {
				return false
			}
		}
		for k, v := range m {
			if out.M[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPingPongLatency(t *testing.T) {
	// Two actors bounce a counter; verifies no message loss over many
	// round trips. Partners are introduced by message, Erlang-style.
	const rounds = 5000
	done := make(chan int, 1)
	bounce := func(c *Ctx, report bool) {
		partner := c.Receive().(*Ref)
		for {
			v := c.Receive().(int)
			if v >= rounds {
				if report {
					done <- v
				} else {
					partner.Send(v)
				}
				return
			}
			partner.Send(v + 1)
		}
	}
	ping := Spawn(func(c *Ctx) { bounce(c, true) })
	pong := Spawn(func(c *Ctx) { bounce(c, false) })
	ping.Send(pong)
	pong.Send(ping)
	ping.Send(0)
	select {
	case v := <-done:
		if v < rounds {
			t.Fatalf("stopped early at %d", v)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ping-pong lost the ball")
	}
}

// The frozen paradigm's one leak/termination test. A mailbox is a
// queue.MPSC, whose consumer parks after a few busy polls: in a ring
// every hop wakes an actor parked in Receive, the poison pill that
// follows the token must wake all 64 once more, and every goroutine
// must be gone when the last actor has been joined.
func TestActorIdleRingTerminatesWithoutLeak(t *testing.T) {
	const ring, hops = 64, 20000
	before := runtime.NumGoroutine()
	finished := make(chan int, 1)
	refs, join := SpawnGroup(ring, func(i int, c *Ctx) {
		next := c.Receive().(*Ref)
		for {
			v := c.Receive().(int)
			if v == 0 {
				finished <- i
			}
			if v <= 0 {
				next.Send(-1)
				return
			}
			next.Send(v - 1)
		}
	})
	for i, r := range refs {
		r.Send(refs[(i+1)%ring])
	}
	refs[0].Send(hops)
	joined := make(chan struct{})
	go func() { join(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(30 * time.Second):
		t.Fatal("the ring did not terminate: a parked actor was not woken")
	}
	if i := <-finished; i != hops%ring {
		t.Errorf("finisher = %d, want %d", i, hops%ring)
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before the ring", runtime.NumGoroutine(), before)
		}
	}
}
