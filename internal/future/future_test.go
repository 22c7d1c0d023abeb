package future

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestCompleteAndGet(t *testing.T) {
	f := New()
	if _, _, ok := f.TryGet(); ok {
		t.Fatal("fresh future reports complete")
	}
	go f.Complete(42)
	v, err := f.Get()
	if err != nil || v.(int) != 42 {
		t.Fatalf("Get = %v, %v; want 42, nil", v, err)
	}
	if v, err, ok := f.TryGet(); !ok || err != nil || v.(int) != 42 {
		t.Fatalf("TryGet = %v, %v, %v", v, err, ok)
	}
}

func TestFirstResolutionWins(t *testing.T) {
	f := New()
	if !f.Complete(1) {
		t.Fatal("first Complete lost")
	}
	if f.Complete(2) || f.Fail(errors.New("late")) {
		t.Fatal("second resolution won")
	}
	if v, err := f.Get(); err != nil || v.(int) != 1 {
		t.Fatalf("Get = %v, %v", v, err)
	}
}

func TestDoneChannel(t *testing.T) {
	f := New()
	select {
	case <-f.Done():
		t.Fatal("Done closed before completion")
	default:
	}
	f.Fail(errors.New("boom"))
	select {
	case <-f.Done():
	case <-time.After(time.Second):
		t.Fatal("Done not closed after completion")
	}
}

// A future resolved before anybody asked for its channel has none; Done
// must still read as closed, and Get/TryGet must see the value.
func TestDoneAfterResolve(t *testing.T) {
	viaCallback := New()
	viaCallback.OnComplete(func(any, error) {})
	viaCallback.Complete(5)
	direct := New()
	direct.Complete(5)
	for _, f := range []*Future{direct, viaCallback} {
		select {
		case <-f.Done():
		default:
			t.Fatal("Done of a resolved future is not closed")
		}
		if v, err, ok := f.TryGet(); !ok || err != nil || v.(int) != 5 {
			t.Fatalf("TryGet = %v, %v, %v", v, err, ok)
		}
		if v, err := f.Get(); err != nil || v.(int) != 5 {
			t.Fatalf("Get = %v, %v", v, err)
		}
	}
}

// The callback path a remote caller takes — New, one OnComplete,
// Complete — costs the cell and nothing else: no channel nobody waits
// on, no slice for a lone callback.
func TestFutureCallbackPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned for the non-race build")
	}
	var n int
	cb := func(any, error) { n++ }
	allocs := testing.AllocsPerRun(1000, func() {
		f := New()
		f.OnComplete(cb)
		f.Complete(nil)
	})
	if allocs != 1 {
		t.Fatalf("New+OnComplete+Complete = %.1f allocs, want 1", allocs)
	}
	if n == 0 {
		t.Fatal("callback never ran")
	}
}

// Future stays in the 80-byte size class: the lazy channel and the
// inline first callback must not grow it.
func TestFutureSize(t *testing.T) {
	if got := unsafe.Sizeof(Future{}); got > 80 {
		t.Fatalf("sizeof(Future) = %d, want <= 80", got)
	}
}

func TestCallbacksBeforeCompletionRunInOrder(t *testing.T) {
	f := New()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		f.OnComplete(func(v any, err error) { got = append(got, i) })
	}
	f.Complete("x")
	if len(got) != 5 {
		t.Fatalf("ran %d callbacks, want 5", len(got))
	}
	for i, g := range got {
		if g != i {
			t.Fatalf("callback order %v", got)
		}
	}
}

func TestCallbackAfterCompletionRunsImmediately(t *testing.T) {
	f := New()
	f.Complete(7)
	ran := false
	f.OnComplete(func(v any, err error) {
		if v.(int) != 7 || err != nil {
			t.Errorf("callback got %v, %v", v, err)
		}
		ran = true
	})
	if !ran {
		t.Fatal("callback on a completed future did not run inline")
	}
}

// TestConcurrentResolution hammers a future from many goroutines; with
// -race this checks the first-wins protocol, callback publication, and
// the on-demand Done channel made by waiters while resolvers close it.
func TestConcurrentResolution(t *testing.T) {
	const goroutines = 20
	for iter := 0; iter < 200; iter++ {
		f := New()
		var wins, cbs atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				switch g % 5 {
				case 0:
					if f.Complete(g) {
						wins.Add(1)
					}
				case 1:
					if f.Fail(fmt.Errorf("err %d", g)) {
						wins.Add(1)
					}
				case 2:
					f.OnComplete(func(any, error) { cbs.Add(1) })
				case 3:
					if v, err := f.Get(); v == nil && err == nil {
						t.Error("Get returned before resolution")
					}
				default:
					<-f.Done()
					if _, _, ok := f.TryGet(); !ok {
						t.Error("Done closed before resolution")
					}
				}
			}()
		}
		wg.Wait()
		if wins.Load() != 1 {
			t.Fatalf("iter %d: %d resolutions won, want exactly 1", iter, wins.Load())
		}
		want := 0
		for g := 0; g < goroutines; g++ {
			if g%5 == 2 {
				want++
			}
		}
		if int(cbs.Load()) != want {
			t.Fatalf("iter %d: %d callbacks ran, want %d", iter, cbs.Load(), want)
		}
	}
}
