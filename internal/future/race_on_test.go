//go:build race

package future

// raceEnabled reports a -race build, whose instrumented runtime the
// allocation tests do not pin: they count the plain build's allocations.
const raceEnabled = true
