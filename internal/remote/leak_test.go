package remote

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"scoopqs/internal/core"
)

// leakBaseline is what a test that tore everything down must find back
// where it was: the process's goroutine count and the slab pool's live
// count (process-global, so the package's tests do not run in parallel).
type leakBaseline struct {
	goroutines int
	slabs      uint64
}

// takeLeakBaseline snapshots the counts before a test brings anything
// up.
func takeLeakBaseline() leakBaseline {
	inUse, _ := slabStats()
	return leakBaseline{goroutines: runtime.NumGoroutine(), slabs: inUse}
}

// settle is the package's one leak check, run after the test closed its
// connections and its Server. rt.Shutdown must return — it waits for
// every handler, so a handler some dead channel still holds reserved
// hangs it; the goroutines the test spawned (readers, writers, conn
// servers, pool workers) must be gone; and every payload slab must be
// back in the pool. rt may be nil for tests that ran no runtime. The
// goroutine slack absorbs the runtime's own background goroutines
// (timers, the netpoller's helpers) that come and go between snapshots.
func (b leakBaseline) settle(rt *core.Runtime) error {
	if rt != nil {
		down := make(chan struct{})
		go func() {
			rt.Shutdown()
			close(down)
		}()
		select {
		case <-down:
		case <-time.After(20 * time.Second):
			return errors.New("rt.Shutdown did not return: a handler is still reserved")
		}
	}
	const slack = 2
	var g int
	var slabs uint64
	if !chaosPoll(func() bool {
		g = runtime.NumGoroutine()
		slabs, _ = slabStats()
		return g <= b.goroutines+slack && slabs <= b.slabs
	}) {
		return fmt.Errorf("leak: %d goroutines now vs %d before, %d slabs in use vs %d before",
			g, b.goroutines, slabs, b.slabs)
	}
	return nil
}
