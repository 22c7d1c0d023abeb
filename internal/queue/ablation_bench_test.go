package queue

import (
	"fmt"
	"sync"
	"testing"

	"scoopqs/internal/sched"
)

// Ablation: the specialized queues against buffered Go channels, the
// natural alternative substrate. The paper's §3.1 argues that
// specializing the queue-of-queues (MPSC) and the private queues
// (SPSC) matters because they sit on every client-handler interaction.

func BenchmarkAblationSPSCvsChannel(b *testing.B) {
	b.Run("SPSC", func(b *testing.B) {
		q := NewSPSC[int](0)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				if _, ok := q.Dequeue(); !ok {
					return
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Enqueue(i)
		}
		q.Close()
		<-done
	})
	b.Run("channel", func(b *testing.B) {
		ch := make(chan int, 1024)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range ch {
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ch <- i
		}
		close(ch)
		<-done
	})
}

func BenchmarkAblationMPSCvsChannel(b *testing.B) {
	b.Run("MPSC", func(b *testing.B) {
		q := NewMPSC[int](0)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				if _, ok := q.Dequeue(); !ok {
					return
				}
			}
		}()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				q.Enqueue(1)
			}
		})
		b.StopTimer()
		q.Close()
		<-done
	})
	b.Run("channel", func(b *testing.B) {
		ch := make(chan int, 1024)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range ch {
			}
		}()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				ch <- 1
			}
		})
		b.StopTimer()
		close(ch)
		<-done
	})
}

// Ablation: how long a consumer polls before parking, on both sides of
// the sched.WaitPolicy split.
//
// engaged is the sync handshake of a query: the partner answers at once,
// and the round trip is shorter when the consumer polls and yields than
// when it parks after the busy polls (polls=8, the idle policy).
//
// idlering is the queue-of-queues of a ring of handlers: each consumer is
// woken once per revolution, so every yield it makes first is a trip
// through the run queue that cannot find work.
func BenchmarkAblationSpinCount(b *testing.B) {
	for _, polls := range []sched.WaitPolicy{sched.Idle, 16, sched.Engaged, 128} {
		b.Run(fmt.Sprintf("engaged/polls=%d", polls), func(b *testing.B) {
			req, rsp := NewSPSC[int](0), NewSPSC[int](0)
			req.wait, rsp.wait = polls, polls
			go func() {
				for {
					v, ok := req.Dequeue()
					if !ok {
						rsp.Close()
						return
					}
					rsp.Enqueue(v)
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req.Enqueue(i)
				rsp.Dequeue()
			}
			b.StopTimer()
			req.Close()
			rsp.Dequeue() // the echo goroutine has exited
		})
	}
	for _, polls := range []sched.WaitPolicy{sched.Idle, sched.Engaged} {
		b.Run(fmt.Sprintf("idlering/polls=%d", polls), func(b *testing.B) {
			const ring = 64
			qs := make([]*MPSC[int], ring)
			for i := range qs {
				qs[i] = NewMPSC[int](0)
				qs[i].wait = polls
			}
			var wg sync.WaitGroup
			for i := range qs {
				wg.Add(1)
				go func(in, out *MPSC[int]) {
					defer wg.Done()
					for {
						left, ok := in.Dequeue()
						if !ok {
							return
						}
						if left == 0 {
							for _, q := range qs {
								q.Close()
							}
							return
						}
						out.Enqueue(left - 1)
					}
				}(qs[i], qs[(i+1)%ring])
			}
			b.ResetTimer()
			qs[0].Enqueue(b.N)
			wg.Wait()
		})
	}
}
