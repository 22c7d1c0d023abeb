package sched

import (
	"runtime"
	"sync/atomic"
)

// EngagedYields is the number of yields an engaged wait makes before it
// blocks.
const EngagedYields = int64(Engaged - Idle)

// Yields counts the yields SpinWait has made in this test binary; tests
// compare readings. The counting yield is installed before any goroutine
// exists, so no test races with a straggler of an earlier one over it.
var Yields atomic.Int64

func init() {
	yield = func() { Yields.Add(1); runtime.Gosched() }
}
