package stm

import (
	"runtime"
	"sync"
	"testing"
)

// Snapshot isolation for read-only transactions: a reader that sees x
// must see the matching y even while writers continuously update both
// together.
func TestReadOnlySnapshotIsolation(t *testing.T) {
	snapshotRound(t, 5000)
}

// The torn snapshot needs a reader to start between a committer's clock
// bump and its stores, a window of a few instructions; many short
// rounds at each GOMAXPROCS hit it where one long round may not (at the
// unfixed Read, every setting fails within a handful of rounds).
func TestSnapshotIsolationStress(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for round := 0; round < 200 && !t.Failed(); round++ {
			snapshotRound(t, 300)
		}
		runtime.GOMAXPROCS(prev)
	}
}

// snapshotRound runs one writer keeping x == y against reads paired
// read-only transactions.
func snapshotRound(t *testing.T, reads int) {
	t.Helper()
	x := NewTVar(0)
	y := NewTVar(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)

	wg.Add(1)
	go func() { // writer: keeps x == y
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			Void(func(tx *Txn) {
				tx.Write(x, i)
				tx.Write(y, i)
			})
		}
	}()

	for i := 0; i < reads; i++ {
		pair := Atomically(func(tx *Txn) any {
			return [2]int{tx.ReadInt(x), tx.ReadInt(y)}
		}).([2]int)
		if pair[0] != pair[1] {
			t.Errorf("torn snapshot: x=%d y=%d", pair[0], pair[1])
			return
		}
	}
}

// A transaction that writes without reading still serializes with
// read-modify-write transactions on the same variable (blind writes
// must not resurrect overwritten state).
func TestBlindWritesSerialize(t *testing.T) {
	v := NewTVar(0)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			Void(func(tx *Txn) { tx.Write(v, tx.ReadInt(v)+1) })
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			Void(func(tx *Txn) { tx.Write(v, 0) }) // blind reset
		}
	}()
	wg.Wait()
	got := Atomically(func(tx *Txn) any { return tx.Read(v) }).(int)
	if got < 0 || got > 2000 {
		t.Fatalf("impossible final value %d", got)
	}
}

// Nested Atomically calls are independent transactions (no nesting
// semantics promised, but they must not corrupt each other's sets).
func TestIndependentSequentialTxns(t *testing.T) {
	a := NewTVar(1)
	b := NewTVar(2)
	sum := Atomically(func(tx *Txn) any {
		av := tx.ReadInt(a)
		inner := Atomically(func(tx2 *Txn) any { return tx2.ReadInt(b) }).(int)
		return av + inner
	}).(int)
	if sum != 3 {
		t.Fatalf("sum = %d, want 3", sum)
	}
}
