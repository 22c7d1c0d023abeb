package queue

import "testing"

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
