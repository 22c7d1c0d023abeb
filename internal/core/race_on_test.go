//go:build race

package core

// raceEnabled reports a -race build: the race detector drops a random
// share of sync.Pool Puts, so allocation counts are not exact under it.
const raceEnabled = true
