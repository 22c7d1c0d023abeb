//go:build race

package queue

// raceEnabled reports a -race build, whose instrumentation makes
// allocation counts inexact: the allocation pins run without it.
const raceEnabled = true
