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
	for _, f := range []*Future{Completed(5), viaCallback} {
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

// Future stays in the 96-byte size class: the lazy channel and the
// inline first callback must not grow it.
func TestFutureSize(t *testing.T) {
	if got := unsafe.Sizeof(Future{}); got > 96 {
		t.Fatalf("sizeof(Future) = %d, want <= 96", got)
	}
}

func TestAwaitPanicsOnError(t *testing.T) {
	want := errors.New("handler exploded")
	f := Failed(want)
	defer func() {
		if r := recover(); r != want {
			t.Fatalf("Await panicked with %v, want %v", r, want)
		}
	}()
	f.Await()
	t.Fatal("Await returned on a failed future")
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
	f := Completed(7)
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

func TestThen(t *testing.T) {
	f := New()
	g := f.Then(func(v any) any { return v.(int) + 1 })
	f.Complete(1)
	if v, err := g.Get(); err != nil || v.(int) != 2 {
		t.Fatalf("Then = %v, %v", v, err)
	}

	e := errors.New("upstream")
	if _, err := Failed(e).Then(func(v any) any { return v }).Get(); err != e {
		t.Fatalf("Then did not propagate error: %v", err)
	}

	_, err := Completed(0).Then(func(v any) any { panic("bad transform") }).Get()
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "bad transform" {
		t.Fatalf("Then panic surfaced as %v", err)
	}
}

func TestAll(t *testing.T) {
	fs := []*Future{New(), New(), New()}
	all := All(fs...)
	fs[2].Complete(3)
	fs[0].Complete(1)
	if _, _, ok := all.TryGet(); ok {
		t.Fatal("All completed early")
	}
	fs[1].Complete(2)
	v, err := all.Get()
	if err != nil {
		t.Fatal(err)
	}
	vals := v.([]any)
	for i, want := range []int{1, 2, 3} {
		if vals[i].(int) != want {
			t.Fatalf("All values %v", vals)
		}
	}

	if v, err := All().Get(); err != nil || len(v.([]any)) != 0 {
		t.Fatalf("All() = %v, %v", v, err)
	}
}

func TestAllFailsWithLowestIndexedError(t *testing.T) {
	fs := []*Future{New(), New(), New()}
	all := All(fs...)
	e1 := errors.New("one")
	e0 := errors.New("zero")
	fs[1].Fail(e1)
	fs[2].Complete(2)
	fs[0].Fail(e0)
	if _, err := all.Get(); err != e0 {
		t.Fatalf("All error = %v, want the lowest-indexed failure %v", err, e0)
	}
}

func TestAny(t *testing.T) {
	fs := []*Future{New(), New()}
	first := Any(fs...)
	fs[1].Complete("second input, first to finish")
	v, err := first.Get()
	if err != nil || v.(string) == "" {
		t.Fatalf("Any = %v, %v", v, err)
	}
	fs[0].Complete("late")
	if v2, _ := first.Get(); v2 != v {
		t.Fatal("Any result changed after a late completion")
	}

	if _, err := Any().Get(); !errors.Is(err, ErrNone) {
		t.Fatalf("Any() = %v, want ErrNone", err)
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

// TestAllAnyUnderRace resolves inputs from concurrent goroutines.
func TestAllAnyUnderRace(t *testing.T) {
	const n = 32
	fs := make([]*Future, n)
	for i := range fs {
		fs[i] = New()
	}
	all := All(fs...)
	first := Any(fs...)
	var wg sync.WaitGroup
	for i := range fs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			fs[i].Complete(i)
		}()
	}
	wg.Wait()
	v, err := all.Get()
	if err != nil || len(v.([]any)) != n {
		t.Fatalf("All = %v, %v", v, err)
	}
	if _, err := first.Get(); err != nil {
		t.Fatal(err)
	}
}
